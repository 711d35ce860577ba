package core

import (
	"math"
	"sort"

	"fase/internal/activity"
)

// ModulationClass says which aspect of the system modulates a carrier,
// inferred by comparing FASE results across activity pairings (§2.2:
// "FASE results for different X/Y pairings usually provide a strong
// indication of which aspect of the system modulates a given carrier").
type ModulationClass int

const (
	// MemoryRelated carriers respond to memory-vs-on-chip alternation but
	// not to on-chip-vs-on-chip alternation: memory controller,
	// processor-memory communication, or the DRAM itself.
	MemoryRelated ModulationClass = iota
	// OnChipRelated carriers respond to on-chip alternation but not to
	// memory alternation (e.g. the core supply regulator).
	OnChipRelated
	// BothRelated carriers respond to both pairings.
	BothRelated
)

// String names the class.
func (m ModulationClass) String() string {
	switch m {
	case MemoryRelated:
		return "memory-related"
	case OnChipRelated:
		return "on-chip-related"
	case BothRelated:
		return "memory+on-chip"
	default:
		return "unknown"
	}
}

// ClassifiedCarrier is a detection annotated with its modulation class.
type ClassifiedCarrier struct {
	Detection
	Class ModulationClass
	// Pairs records which activity pairs detected it.
	Pairs []string
}

// classifyTolHz is the distance within which carriers of the two
// campaigns Classify compares are one carrier.
const classifyTolHz = 1e3

// Classify cross-references detections from a memory-alternation campaign
// (e.g. LDM/LDL1) and an on-chip-alternation campaign (e.g. LDL2/LDL1).
// Carriers within classifyTolHz (1 kHz) of each other across campaigns
// are considered the same carrier.
func Classify(memory, onchip *Result) []ClassifiedCarrier {
	memPair := pairName(memory.Campaign.X, memory.Campaign.Y)
	chipPair := pairName(onchip.Campaign.X, onchip.Campaign.Y)
	var out []ClassifiedCarrier
	usedChip := make([]bool, len(onchip.Detections))
	for _, d := range memory.Detections {
		cc := ClassifiedCarrier{Detection: d, Class: MemoryRelated, Pairs: []string{memPair}}
		for i, o := range onchip.Detections {
			if !usedChip[i] && math.Abs(o.Freq-d.Freq) <= classifyTolHz {
				usedChip[i] = true
				cc.Class = BothRelated
				cc.Pairs = append(cc.Pairs, chipPair)
				if o.Score > cc.Score {
					cc.Detection = o
					cc.Detection.Freq = d.Freq // keep one canonical frequency
				}
				break
			}
		}
		out = append(out, cc)
	}
	for i, o := range onchip.Detections {
		if !usedChip[i] {
			out = append(out, ClassifiedCarrier{
				Detection: o, Class: OnChipRelated, Pairs: []string{chipPair},
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Freq < out[b].Freq })
	return out
}

func pairName(x, y activity.Kind) string { return x.String() + "/" + y.String() }
