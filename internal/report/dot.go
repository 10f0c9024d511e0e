package report

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/model"
)

// WriteDOT renders the call graph in Graphviz DOT form. The paper's
// authors wanted to "print the call graph of the program" but "were
// limited by the two-dimensional nature of our output devices" and by
// character terminals (§5.2, retrospective); this is that graph for
// renderers that came later.
//
// Nodes show the routine, its self and total seconds, and its call
// count; fill darkens with the routine's share of total time. Edges are
// labeled with traversal counts and weighted by propagated time; static
// (never-traversed) arcs are dashed; intra-cycle arcs are drawn inside a
// cluster per cycle. Options' Focus/MinPercent/Exclude filters apply.
func WriteDOT(w io.Writer, m *model.Profile, opt Options) error {
	v, err := newView(m)
	if err != nil {
		return err
	}
	f := v.compile(&opt)

	fmt.Fprintln(w, "digraph callgraph {")
	fmt.Fprintln(w, `  rankdir=TB;`)
	fmt.Fprintln(w, `  node [shape=box, style=filled, fontname="monospace"];`)

	// Stable node order.
	order := make([]int32, len(m.Routines))
	kept := make([]bool, len(m.Routines))
	for i := range m.Routines {
		order[i] = int32(i)
		kept[i] = wantNode(v, int32(i), opt, f)
	}
	sort.Slice(order, func(i, j int) bool { return m.Routines[order[i]].Name < m.Routines[order[j]].Name })

	// Cycle clusters first, then free nodes.
	emitted := make([]bool, len(m.Routines))
	for i := range m.Cycles {
		c := &m.Cycles[i]
		members := v.members[i]
		if !slices.ContainsFunc(members, func(p int32) bool { return kept[p] }) {
			continue
		}
		fmt.Fprintf(w, "  subgraph cluster_%d {\n", c.Number)
		fmt.Fprintf(w, "    label=\"cycle %d\";\n    style=dashed;\n", c.Number)
		for _, p := range members {
			if kept[p] {
				emitNode(w, m, &m.Routines[p], "    ")
				emitted[p] = true
			}
		}
		fmt.Fprintln(w, "  }")
	}
	for _, p := range order {
		if kept[p] && !emitted[p] {
			emitNode(w, m, &m.Routines[p], "  ")
		}
	}

	// Edges between kept nodes, in (caller, callee) order.
	arcs := make([]int32, len(m.Arcs))
	for i := range arcs {
		arcs[i] = int32(i)
	}
	sort.Slice(arcs, func(i, j int) bool {
		ai, aj := &m.Arcs[arcs[i]], &m.Arcs[arcs[j]]
		if ai.From != aj.From {
			return ai.From < aj.From
		}
		return ai.To < aj.To
	})
	for _, i := range arcs {
		a := &m.Arcs[i]
		if v.from[i] < 0 || !kept[v.to[i]] || !kept[v.from[i]] {
			continue
		}
		attrs := []string{fmt.Sprintf("label=\"%d\"", a.Count)}
		switch {
		case a.Static:
			attrs = append(attrs, "style=dashed", `color="gray50"`)
		case a.Self():
			attrs = append(attrs, "dir=back")
		}
		if t := m.Seconds(a.PropSelfTicks + a.PropChildTicks); t > 0 {
			width := 1 + 4*m.Percent(a.PropSelfTicks+a.PropChildTicks)/100
			attrs = append(attrs, fmt.Sprintf("penwidth=%.2f", width))
		}
		fmt.Fprintf(w, "  %q -> %q [%s];\n", a.From, a.To, strings.Join(attrs, ", "))
	}
	fmt.Fprintln(w, "}")
	return nil
}

func emitNode(w io.Writer, m *model.Profile, r *model.Routine, indent string) {
	pct := m.Percent(r.TotalTicks())
	// White through a warm tone as the node gets hotter.
	shade := int(255 - 1.6*pct)
	if shade < 96 {
		shade = 96
	}
	label := fmt.Sprintf("%s\\n%.2fs self / %.2fs total\\n%d calls",
		r.Name, m.Seconds(r.SelfTicks), m.Seconds(r.TotalTicks()),
		r.Calls+r.SelfCalls)
	fmt.Fprintf(w, "%s%q [label=\"%s\", fillcolor=\"#ff%02x%02x\"];\n",
		indent, r.Name, label, shade, shade)
}
