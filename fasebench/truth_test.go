package main

import (
	"testing"

	"fase/internal/core"
	"fase/internal/verify"
)

// The benchmark re-implements the accuracy harness's corpus generation
// and matching rule, both unexported in internal/verify. On the
// harness's own clean pass it must score exactly what the harness does.
func TestQualityMatchesVerify(t *testing.T) {
	const n = 6
	rep, err := verify.Evaluate(verify.Config{Scenarios: n})
	if err != nil {
		t.Fatal(err)
	}
	spec := corpusSpec()
	var q quality
	for i := 0; i < n; i++ {
		sc := newScenario(spec, i)
		res, err := (&core.Runner{Scene: sc.scene}).RunE(corpusCampaign(sc.campaignSeed()))
		if err != nil {
			t.Fatal(err)
		}
		q.add(sc.truth, detectionFreqs(res.Detections), 24*corpusFres, res.Captures)
	}
	c := rep.NoFault
	if q.tp != c.TP || q.fp != c.FP || q.found != c.CarriersFound || q.total != c.CarriersTotal {
		t.Fatalf("benchmark scored tp %d fp %d found %d/%d; harness tp %d fp %d found %d/%d",
			q.tp, q.fp, q.found, q.total, c.TP, c.FP, c.CarriersFound, c.CarriersTotal)
	}
	if q.precision() != c.Precision || q.recall() != c.Recall {
		t.Fatalf("precision %v recall %v; harness %v %v", q.precision(), q.recall(), c.Precision, c.Recall)
	}
	if q.total == 0 || q.tp == 0 {
		t.Fatalf("corpus slice scored nothing: %+v", q)
	}
}

func TestQualityConventions(t *testing.T) {
	var q quality
	if q.precision() != 1 || q.recall() != 1 {
		t.Fatalf("empty scoring: precision %v recall %v, want 1 and 1", q.precision(), q.recall())
	}
}
