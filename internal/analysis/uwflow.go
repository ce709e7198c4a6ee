package analysis

import "sort"

// UWFlow proves that every microword is counted on the channel its
// declared ucode.Class permits. The paper's Table 8 is a Row×Class
// matrix whose cells are filled by *which* counting primitive fired —
// execution ticks, read/write stall accounting, folded markers — so a
// word counted on the wrong channel corrupts a cell silently: the
// histogram stays internally consistent and no test that sums cycles can
// notice. Per class:
//
//   - ClassCompute / ClassDispatch / ClassIBStall words may only be
//     executed (tick/ticks); an IB-stall word is §4.3's dedicated
//     instruction-buffer stall location, ticked once per waiting cycle;
//   - ClassRead / ClassWrite words may tick and stall, but an execution
//     tick must have stall accounting for the same word reachable on
//     some path to it (the paper's memory-reference words are exactly
//     the ones that can wait on the cache and the UNIBUS);
//   - ClassMarker words are counted only by tickFree — they mark folded
//     cycles and must stay invisible to the paid channels outside the
//     folded-marker ablation.
//
// The verdicts ride on the µflow model (uwmodel.go, dataflow.go): handles
// are followed through locals, parameters and helpers, cross-package
// bindings and helper summaries arrive as object facts, and a value the
// model cannot interpret is silent rather than a false finding.
var UWFlow = &Analyzer{
	Name: "uwflow",
	Doc:  "microword class must match its count channel (ticks vs stalls vs folded markers)",
	Run:  runUWFlow,
}

// uwAllowedChannels is the class→channel contract.
var uwAllowedChannels = map[string]map[uwChannel]bool{
	"ClassCompute":  {chExec: true},
	"ClassDispatch": {chExec: true},
	"ClassRead":     {chExec: true, chStall: true},
	"ClassWrite":    {chExec: true, chStall: true},
	"ClassIBStall":  {chExec: true},
	"ClassMarker":   {chFree: true},
}

func runUWFlow(pass *Pass) error {
	m := buildUWModel(pass, []*Package{pass.Pkg})
	for _, flow := range m.flowLst {
		for _, site := range flow.sites {
			m.checkFlowSite(flow, site)
		}
	}
	return nil
}

func (m *uwModel) checkFlowSite(flow *funcFlow, site *uwSite) {
	pass := m.pass
	// Direct channel call (a primitive or a raw Probe call).
	ch, hp, direct := channelOf(site.callee)
	if site.probeCh != "" {
		ch, hp, direct = site.probeCh, 0, true
	}
	if direct {
		if hp >= len(site.args) {
			return
		}
		v := site.args[hp]
		classes := m.classesOf(flow, v)
		for _, c := range sortedClasses(classes) {
			allowed, known := uwAllowedChannels[c]
			if !known || allowed[ch] {
				continue
			}
			pass.Reportf(site.call.Pos(),
				"%s microword (%s) counted on the %s channel; %s words are counted only on %s",
				c, m.handleNames(v), ch, c, channelList(allowed))
		}
		if ch == chExec && (classes["ClassRead"] || classes["ClassWrite"]) {
			if !m.stallCovered(flow, site, v) {
				pass.Reportf(site.call.Pos(),
					"read/write-class microword (%s) ticked with no stall accounting for it on any path to this tick",
					m.handleNames(v))
			}
		}
		return
	}
	// A call through a named function type feeds every collected value of
	// the type. Candidates analyzed by this pass (local functions and
	// literals) are judged at their own interior sites, where the table
	// dispatch's classes arrive by inflow; only candidates whose bodies
	// live elsewhere are judged here, against the union of their imported
	// summaries.
	if site.dyn != nil {
		m.checkDynSite(flow, site)
		return
	}
	// Call into a helper whose body this pass does not see (another
	// package): judge the handle against the helper's channel summary.
	if site.callee == nil || m.flows[site.callee] != nil {
		return // local helpers are checked at their own interior sites via inflow
	}
	summ := m.summaryOf(site.callee)
	for j := 0; j < len(summ) && j < len(site.args); j++ {
		if len(summ[j]) == 0 {
			continue
		}
		classes := m.classesOf(flow, site.args[j])
		for _, c := range sortedClasses(classes) {
			allowed, known := uwAllowedChannels[c]
			if !known {
				continue
			}
			for _, ch := range sortedChans(summ[j]) {
				if !allowed[ch] {
					pass.Reportf(site.call.Args[j].Pos(),
						"%s microword (%s) flows into %s, which counts it on the %s channel; %s words are counted only on %s",
						c, m.handleNames(site.args[j]), site.callee.Name(), ch, c, channelList(allowed))
				}
			}
			if (c == "ClassRead" || c == "ClassWrite") && summ[j][chExec] && !summ[j][chStall] {
				pass.Reportf(site.call.Args[j].Pos(),
					"read/write-class microword (%s) flows into %s, which ticks it without any stall accounting",
					m.handleNames(site.args[j]), site.callee.Name())
			}
		}
	}
}

// checkDynSite judges the arguments of a dynamic call against the summary
// union of the candidates this pass cannot see locally.
func (m *uwModel) checkDynSite(flow *funcFlow, site *uwSite) {
	summ := m.dynSummary(site.dyn, true)
	for j := 0; j < len(summ) && j < len(site.args); j++ {
		if len(summ[j]) == 0 {
			continue
		}
		classes := m.classesOf(flow, site.args[j])
		for _, c := range sortedClasses(classes) {
			allowed, known := uwAllowedChannels[c]
			if !known {
				continue
			}
			for _, ch := range sortedChans(summ[j]) {
				if !allowed[ch] {
					m.pass.Reportf(site.call.Args[j].Pos(),
						"%s microword (%s) flows into a %s value, which may count it on the %s channel; %s words are counted only on %s",
						c, m.handleNames(site.args[j]), site.dyn.Name(), ch, c, channelList(allowed))
				}
			}
		}
	}
}

// stallCovered reports whether some site in the function accounts stall
// cycles for the same value source and can precede the tick: an earlier
// site of the same block, or a site in a block with a CFG path to the
// tick's block. (cacheReadRef's shape — a conditional stall, then the
// tick after the join — is the canonical pass.)
func (m *uwModel) stallCovered(flow *funcFlow, tick *uwSite, v valueSet) bool {
	for _, s := range flow.sites {
		if s == tick {
			continue
		}
		if !m.stallsFor(s, v) {
			continue
		}
		if s.block == tick.block {
			if s.ord < tick.ord || flow.cfg.Reaches(s.block, tick.block) {
				return true
			}
			continue
		}
		if flow.cfg.Reaches(s.block, tick.block) {
			return true
		}
	}
	return false
}

// stallsFor reports whether site s performs stall accounting for any of
// v's origins — directly, or through a helper whose summary reaches the
// stall channel.
func (m *uwModel) stallsFor(s *uwSite, v valueSet) bool {
	if ch, hp, ok := channelOf(s.callee); ok && ch == chStall {
		return hp < len(s.args) && s.args[hp].sharesOrigin(v)
	}
	if s.probeCh == chStall {
		return len(s.args) > 0 && s.args[0].sharesOrigin(v)
	}
	if s.callee == nil {
		return false
	}
	summ := m.summaryOf(s.callee)
	for j := 0; j < len(summ) && j < len(s.args); j++ {
		if summ[j][chStall] && s.args[j].sharesOrigin(v) {
			return true
		}
	}
	return false
}

func sortedClasses(cs classSet) []string {
	out := make([]string, 0, len(cs))
	for c := range cs {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func sortedChans(cs chanSet) []uwChannel {
	out := make([]uwChannel, 0, len(cs))
	for c := range cs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func channelList(allowed map[uwChannel]bool) string {
	chans := make([]string, 0, len(allowed))
	for ch := range allowed {
		chans = append(chans, string(ch))
	}
	sort.Strings(chans)
	s := ""
	for i, ch := range chans {
		if i > 0 {
			s += "/"
		}
		s += ch
	}
	return s
}
