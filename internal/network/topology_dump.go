package network

import (
	"fmt"
	"sort"
	"strings"
)

// DescribeTopology renders the Omega network's wiring as text — the
// information content of the paper's Figure 2 (which draws the 8×8 case):
// for every stage and switch, the PEs or switch ports feeding each input
// and the destination of each output, plus the unique PE→MM path for a
// sample pair.
func DescribeTopology(k, stages int) string {
	t := newTopology(k, stages, 1)
	var b strings.Builder
	fmt.Fprintf(&b, "Omega network: %d PEs -> %d stages of %d %dx%d switches -> %d MMs\n",
		t.n, stages, t.group, k, k, t.n)
	fmt.Fprintf(&b, "(messages route by destination digits, MSB first; replies retrace by source digits)\n\n")

	for s := 0; s < stages; s++ {
		fmt.Fprintf(&b, "stage %d:\n", s)
		for sw := 0; sw < t.group; sw++ {
			ins := stageInputs(t, s, sw)
			outs := make([]string, 0, k)
			for port := 0; port < k; port++ {
				line := sw*k + port
				if s == stages-1 {
					outs = append(outs, fmt.Sprintf("MM%d", line))
				} else {
					nl := t.shuffle(line)
					outs = append(outs, fmt.Sprintf("s%d.sw%d.in%d", s+1, nl/k, nl%k))
				}
			}
			fmt.Fprintf(&b, "  sw%-3d in: %-28s out: %s\n",
				sw, strings.Join(ins, " "), strings.Join(outs, " "))
		}
	}

	// A sample path, as Figure 2's highlighted route.
	src, dst := 1, t.n-2
	if t.n == 2 {
		src, dst = 0, 1
	}
	fmt.Fprintf(&b, "\npath PE%d -> MM%d:", src, dst)
	line := t.shuffle(src)
	for s := 0; s < stages; s++ {
		port := t.digit(dst, s)
		fmt.Fprintf(&b, " s%d.sw%d(out %d)", s, line/k, port)
		line = line/k*k + port
		if s < stages-1 {
			line = t.shuffle(line)
		}
	}
	fmt.Fprintf(&b, " -> MM%d\n", line)
	return b.String()
}

// stageInputs lists what feeds each input port of switch sw at stage s.
func stageInputs(t *topology, s, sw int) []string {
	var ins []string
	for port := 0; port < t.k; port++ {
		inLine := sw*t.k + port
		prev := t.unshuffle(inLine)
		if s == 0 {
			ins = append(ins, fmt.Sprintf("PE%d", prev))
		} else {
			ins = append(ins, fmt.Sprintf("s%d.sw%d.out%d", s-1, prev/t.k, prev%t.k))
		}
	}
	sort.Strings(ins)
	return ins
}
