package prof

import (
	"sort"

	"ultracomputer/internal/obs/reqtrace"
)

// Critical-path extraction over the causal request spans of
// internal/obs/reqtrace. Combining builds trees of requests: a combined
// request's reply cannot be synthesized before its surviving partner
// returns from memory, so every request in the tree depends on the
// chain of combines above it. For each combining tree we extract the
// longest dependent chain — root (the request that reached memory) down
// to the descendant whose reply completed last — which is the path a
// latency optimization would have to shorten.

// PathStep is one span on a critical path, root first.
type PathStep struct {
	ID         uint64 `json:"id"`
	PE         int    `json:"pe"`
	Op         string `json:"op"`
	Issued     int64  `json:"issued"`
	Done       int64  `json:"done"`
	Latency    int64  `json:"latency"`
	WaitCycles int64  `json:"wait_cycles,omitempty"`
	Hops       int    `json:"hops"`
	// CombineStage is the network stage where this span was absorbed
	// into its parent (-1 for the root).
	CombineStage int `json:"combine_stage"`
}

// CriticalPath is the longest dependent chain of one combining tree.
type CriticalPath struct {
	Root uint64 `json:"root"` // root span ID
	MM   int    `json:"mm"`
	Word int    `json:"word"`
	// Latency spans the tree: first issue to last completion.
	Latency int64 `json:"latency"`
	// TreeSpans counts requests in the combining tree; Depth is the
	// length of the extracted chain.
	TreeSpans int        `json:"tree_spans"`
	Depth     int        `json:"depth"`
	Steps     []PathStep `json:"steps"`
}

// CriticalPaths extracts the topN slowest combining-tree critical paths
// from spans (typically Tracer.Spans() plus SlowSpans()). Deterministic:
// ties break on root span ID.
func CriticalPaths(spans []*reqtrace.Span, topN int) []CriticalPath {
	if topN <= 0 {
		topN = 10
	}
	byID := make(map[uint64]*reqtrace.Span, len(spans))
	for _, s := range spans {
		if s != nil {
			byID[s.ID] = s
		}
	}
	var paths []CriticalPath
	for _, s := range byID {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; ok {
				continue // reached via its root
			}
		}
		paths = append(paths, extractPath(s, byID))
	}
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Latency != paths[j].Latency {
			return paths[i].Latency > paths[j].Latency
		}
		return paths[i].Root < paths[j].Root
	})
	if len(paths) > topN {
		paths = paths[:topN]
	}
	return paths
}

func extractPath(root *reqtrace.Span, byID map[uint64]*reqtrace.Span) CriticalPath {
	// Walk the tree: count spans, find earliest issue, and the
	// descendant completing last (the chain's far end).
	minIssued, maxDone := root.Issued, root.Done
	last := root
	count := 0
	var walk func(s *reqtrace.Span)
	walk = func(s *reqtrace.Span) {
		count++
		if s.Issued < minIssued {
			minIssued = s.Issued
		}
		if s.Done > maxDone || (s.Done == maxDone && s.ID < last.ID) {
			maxDone = s.Done
			last = s
		}
		// Children are recorded in combine order (deterministic).
		for _, c := range s.Children {
			if cs, ok := byID[c]; ok {
				walk(cs)
			}
		}
	}
	walk(root)
	// The chain runs root -> ... -> last via Parent links.
	var chain []*reqtrace.Span
	for s := last; s != nil; {
		chain = append(chain, s)
		if s.Parent == 0 || s == root {
			break
		}
		s = byID[s.Parent]
	}
	cp := CriticalPath{
		Root: root.ID, MM: root.MM, Word: root.Word,
		Latency:   maxDone - minIssued,
		TreeSpans: count,
		Depth:     len(chain),
	}
	for i := len(chain) - 1; i >= 0; i-- {
		s := chain[i]
		st := PathStep{
			ID: s.ID, PE: s.PE, Op: s.Op,
			Issued: s.Issued, Done: s.Done, Latency: s.Latency,
			WaitCycles:   s.WaitCycles,
			Hops:         len(s.Hops),
			CombineStage: -1,
		}
		for _, h := range s.Hops {
			if h.Kind == reqtrace.HopCombine {
				st.CombineStage = int(h.Stage)
				break
			}
		}
		cp.Steps = append(cp.Steps, st)
	}
	return cp
}
