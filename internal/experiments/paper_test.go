//go:build paper

package experiments

import (
	"fmt"
	"strings"
	"testing"

	"fase/internal/report"
)

// paperSeeds is how many seeds, 1…paperSeeds, the claims table counts.
const paperSeeds = 8

// TestPaperClaims runs every experiment at seeds 1–8 and pins EXPERIMENTS.md's
// headline table: every claim in paper order, with the number of seeds it
// holds on. A claim that is lost or gained on any seed shows up as a diff of
// that table; review it, then regenerate with
//
//	UPDATE_GOLDEN=1 go test -tags paper -run TestPaperClaims ./internal/experiments
//
// `make paper` runs it. It also checks that each claim is made once per run
// and on every seed, with the same statement.
func TestPaperClaims(t *testing.T) {
	type row struct {
		claim report.Claim
		runs  int
		holds []int64
	}
	var keys []string
	rows := map[string]*row{}
	for seed := int64(1); seed <= paperSeeds; seed++ {
		for _, id := range IDs() {
			out := mustRun(t, id, Config{Seed: seed})
			seen := map[string]bool{}
			for _, c := range out.Claims {
				key := id + "/" + c.ID
				if seen[key] {
					t.Fatalf("seed %d: claim %s made twice", seed, key)
				}
				seen[key] = true
				r := rows[key]
				if r == nil {
					r = &row{claim: c}
					rows[key] = r
					keys = append(keys, key)
				}
				if c.Text != r.claim.Text {
					t.Fatalf("seed %d: claim %s reads %q, at seed 1 %q", seed, key, c.Text, r.claim.Text)
				}
				r.runs++
				if c.Holds {
					r.holds = append(r.holds, seed)
				}
			}
		}
	}
	tbl := report.Table{Header: []string{"claim", "statement", "holds on"}}
	for _, key := range keys {
		r := rows[key]
		if r.runs != paperSeeds {
			t.Fatalf("claim %s made on %d of %d seeds", key, r.runs, paperSeeds)
		}
		tbl.Rows = append(tbl.Rows, []string{"`" + key + "`", r.claim.Text, holdsOn(r.holds)})
	}
	checkRegion(t, "claims", report.FormatMarkdownTable(tbl))
}

// holdsOn renders "k/8", naming the seeds a claim holds on when it holds
// on at most half of them, and those it fails on otherwise.
func holdsOn(holds []int64) string {
	s := fmt.Sprintf("%d/%d", len(holds), paperSeeds)
	if len(holds) == 0 || len(holds) == paperSeeds {
		return s
	}
	name, list := "seed", holds
	if 2*len(holds) > paperSeeds {
		name, list = "fails on seed", nil
		for seed, i := int64(1), 0; seed <= paperSeeds; seed++ {
			if i < len(holds) && holds[i] == seed {
				i++
			} else {
				list = append(list, seed)
			}
		}
	}
	if len(list) > 1 {
		name += "s"
	}
	strs := make([]string, len(list))
	for i, seed := range list {
		strs[i] = fmt.Sprint(seed)
	}
	return fmt.Sprintf("%s (%s %s)", s, name, strings.Join(strs, ", "))
}
