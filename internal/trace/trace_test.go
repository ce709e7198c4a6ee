package trace

import (
	"bytes"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/cache"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/vax"
	"vax780/internal/vmos"
	"vax780/internal/workload"
)

// capture runs a small timesharing system with a recorder attached.
func capture(t *testing.T) (*cpu.Machine, *Recorder) {
	t.Helper()
	s := vmos.NewSystem(vmos.Config{IncludeNull: true})
	im, err := workload.Generate(workload.GenConfig{
		Mix: workload.TimesharingResearch.Mix, Blocks: 30, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AddProcess("w", im.Sparse()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	rec.Attach(s.Machine())
	res := s.Run(400_000)
	if res.Err != nil || res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	return s.Machine(), rec
}

func TestExactTBReplayMatchesLive(t *testing.T) {
	m, rec := capture(t)
	live := m.TLB.Stats()
	replayed := ReplayTB(&rec.Trace)
	if replayed.Hits != live.Hits || replayed.Misses != live.Misses {
		t.Errorf("TB replay diverged: live hits=%v misses=%v, replay hits=%v misses=%v",
			live.Hits, live.Misses, replayed.Hits, replayed.Misses)
	}
	if replayed.ProcessFlushes != live.ProcessFlushes {
		t.Errorf("flush counts differ: %d vs %d", live.ProcessFlushes, replayed.ProcessFlushes)
	}
}

func TestExactCacheReplayMatchesLive(t *testing.T) {
	m, rec := capture(t)
	live := m.Cache.Stats()
	replayed, err := ReplayCache(&rec.Trace, m.Cache.Config())
	if err != nil {
		t.Fatal(err)
	}
	if replayed.ReadHits != live.ReadHits || replayed.ReadMisses != live.ReadMisses {
		t.Errorf("cache replay diverged:\nlive   %+v\nreplay %+v", live, replayed)
	}
	if replayed.WriteHits != live.WriteHits || replayed.WriteMisses != live.WriteMisses {
		t.Errorf("write replay diverged: %+v vs %+v", live, replayed)
	}
}

func TestTaggedTBReducesMisses(t *testing.T) {
	m, rec := capture(t)
	if m.TLB.Stats().ProcessFlushes == 0 {
		t.Skip("no context switches captured")
	}
	flushed := ReplayTB(&rec.Trace)
	tagged := ReplayTBNoFlush(&rec.Trace)
	fm := flushed.Misses[0] + flushed.Misses[1]
	tm := tagged.Misses[0] + tagged.Misses[1]
	if tm > fm {
		t.Errorf("tagged TB has MORE misses (%d) than flushing TB (%d)", tm, fm)
	}
	if tm == fm {
		t.Log("note: no flush-attributable misses in this short trace")
	}
}

func TestCacheSweepMonotoneInSize(t *testing.T) {
	_, rec := capture(t)
	cfgs := []cache.Config{
		{SizeBytes: 2 * 1024, Ways: 2, BlockBytes: 8},
		{SizeBytes: 8 * 1024, Ways: 2, BlockBytes: 8},
		{SizeBytes: 32 * 1024, Ways: 2, BlockBytes: 8},
	}
	pts := SweepCache(&rec.Trace, cfgs)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Same trace, bigger cache: miss ratio must not increase (LRU within
	// fixed associativity is stack-ordered per set; allow tiny slack for
	// set-mapping effects).
	if pts[2].MissRatio > pts[0].MissRatio*1.05 {
		t.Errorf("miss ratio not improving with size: %v", pts)
	}
	for _, p := range pts {
		if p.MissRatio < 0 || p.MissRatio > 1 {
			t.Errorf("miss ratio out of range: %+v", p)
		}
	}
}

func TestTraceSaveLoad(t *testing.T) {
	_, rec := capture(t)
	var buf bytes.Buffer
	if err := rec.Trace.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(rec.Trace.Events) {
		t.Fatalf("events %d != %d", len(got.Events), len(rec.Trace.Events))
	}
	for i := range got.Events {
		if got.Events[i] != rec.Trace.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestRecorderCap(t *testing.T) {
	rec := &Recorder{MaxEvents: 3}
	for i := 0; i < 10; i++ {
		rec.CacheWrite(uint32(i))
	}
	if len(rec.Trace.Events) != 3 || !rec.Truncated {
		t.Errorf("cap not honored: %d events, truncated=%v", len(rec.Trace.Events), rec.Truncated)
	}
}

func TestRecorderIsPassive(t *testing.T) {
	// The same program with and without a recorder must produce identical
	// cycle counts: tracing is passive, like the monitor board.
	im, err := asm.Assemble(0x1000, `
	MOVL	#200, R7
l:	MOVL	#0x4000, R8
	INCL	(R8)
	SOBGTR	R7, l
	HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(withRec bool) uint64 {
		m := cpu.New(cpu.Config{MemBytes: 1 << 20})
		if withRec {
			(&Recorder{}).Attach(m)
		}
		mon := core.NewMonitor()
		mon.Start()
		m.AttachProbe(mon)
		m.Mem.Load(im.Org, im.Bytes)
		m.R[vax.SP] = 0x8000
		m.SetPC(im.Org)
		res := m.Run(1_000_000)
		if res.Err != nil || !res.Halted {
			t.Fatalf("halted=%v err=%v", res.Halted, res.Err)
		}
		return res.Cycles
	}
	if a, b := runOnce(false), runOnce(true); a != b {
		t.Errorf("recorder perturbed timing: %d vs %d cycles", a, b)
	}
}

func TestKindStrings(t *testing.T) {
	for k := EvTBLookup; k <= EvCacheFlush; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("kind %d has bad string %q", k, s)
		}
	}
}

func TestTBGeometrySweep(t *testing.T) {
	_, rec := capture(t)
	gs := []TBGeometry{
		{SetsPerHalf: 8, Ways: 2, SplitHalves: true, FlushOnCtx: true},
		{SetsPerHalf: 32, Ways: 2, SplitHalves: true, FlushOnCtx: true}, // the 11/780
		{SetsPerHalf: 128, Ways: 2, SplitHalves: true, FlushOnCtx: true},
	}
	pts := SweepTB(&rec.Trace, gs)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Bigger TBs must not miss more.
	if pts[2].MissRatio > pts[0].MissRatio {
		t.Errorf("TB miss ratio rose with size: %+v", pts)
	}
	for _, p := range pts {
		if p.Lookups == 0 {
			t.Error("no lookups replayed")
		}
	}
	// Flushing must not reduce misses.
	noFlush, err := SimulateTB(&rec.Trace, TBGeometry{SetsPerHalf: 32, Ways: 2, SplitHalves: true})
	if err != nil {
		t.Fatal(err)
	}
	if noFlush.Misses > pts[1].Misses {
		t.Errorf("suppressing flushes increased misses: %d vs %d", noFlush.Misses, pts[1].Misses)
	}
}

func TestTBGeometryBadErrors(t *testing.T) {
	if _, err := SimulateTB(&Trace{}, TBGeometry{}); err == nil {
		t.Error("bad geometry should report an error")
	}
	if _, err := ReplayCache(&Trace{}, cache.Config{SizeBytes: -1}); err == nil {
		t.Error("bad cache geometry should report an error")
	}
	// A sweep over a grid containing bad points skips them instead of dying.
	if pts := SweepTB(&Trace{}, []TBGeometry{{}, {SetsPerHalf: 8, Ways: 2}}); len(pts) != 1 {
		t.Errorf("sweep over bad geometry: got %d points, want 1", len(pts))
	}
}
