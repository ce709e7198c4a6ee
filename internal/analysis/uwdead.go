package analysis

// UWDead proves that no histogram bucket is structurally zero: every
// Define()d control-store location must be statically reachable at at
// least one count site — an execution tick, stall accounting, an
// IB-stall count, or the folded-marker channel. A word that is defined
// but never counted does not fail any dynamic test (its bucket simply
// stays zero), yet it silently skews every Table 8 marginal computed
// over its Row or Class and misstates the control-store occupancy the
// listing reports.
//
// Reachability is a module-wide property — a handle defined in
// internal/cpu could be counted from any importer — so unlike uwflow
// this analyzer runs module-level, over the whole load at once,
// and needs no facts: the µflow model is built with every package's
// bindings and summaries in one table.
//
// The proof is conservative in the direction uwdead cares about: the
// dataflow is a may-analysis, so a handle laundered through arithmetic,
// an interface, or a closure stops being tracked and would be reported
// dead even if a count site dynamically sees it. Such a word is exempted
// with a justified //vaxlint:allow uwdead on its Define — the audit
// trail the analyzer exists to force. (The real tree needs none.)
var UWDead = &Analyzer{
	Name:        "uwdead",
	Doc:         "every defined microword must be statically reachable at a count site (no structurally-zero buckets)",
	ModuleLevel: true,
	Run:         runUWDead,
}

func runUWDead(pass *Pass) error {
	m := buildUWModel(pass, pass.All)
	if len(m.handles) == 0 {
		return nil
	}
	counted := make([]bool, len(m.handles))
	mark := func(v valueSet) {
		for i := range v.handles {
			counted[i] = true
		}
	}
	for _, flow := range m.flowLst {
		for _, site := range flow.sites {
			if site.probeCh != "" {
				if len(site.args) > 0 {
					mark(site.args[0])
				}
				continue
			}
			// A dynamic call counts a handle if any candidate value of the
			// named function type (a registered handler or literal) leads
			// the parameter to a channel.
			if site.dyn != nil {
				summ := m.dynSummary(site.dyn, false)
				for j := 0; j < len(summ) && j < len(site.args); j++ {
					if len(summ[j]) > 0 {
						mark(site.args[j])
					}
				}
				continue
			}
			if ch, hp, ok := channelOf(site.callee); ok && ch != "" {
				if hp < len(site.args) {
					mark(site.args[hp])
				}
				continue
			}
			// A helper counts a handle if the parameter the handle flows
			// into reaches any channel inside it.
			summ := m.summaryOf(site.callee)
			for j := 0; j < len(summ) && j < len(site.args); j++ {
				if len(summ[j]) > 0 {
					mark(site.args[j])
				}
			}
		}
	}
	for i, h := range m.handles {
		if counted[i] {
			continue
		}
		where := describeRowClass(h)
		pass.Reportf(h.Pos,
			"microword %q%s is defined but reaches no count site; its histogram bucket is structurally zero",
			h.Name, where)
	}
	return nil
}

func describeRowClass(h uwHandle) string {
	switch {
	case h.Row != "" && h.Class != "":
		return " (" + h.Row + ", " + h.Class + ")"
	case h.Row != "":
		return " (" + h.Row + ")"
	case h.Class != "":
		return " (" + h.Class + ")"
	}
	return ""
}
