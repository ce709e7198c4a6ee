package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vax780/internal/cache"
	"vax780/internal/checkpoint"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/mmu"
	"vax780/internal/tb"
	"vax780/internal/workload"
)

// replayPasses is how many times each captured stream is replayed; the
// median pass gives the per-call time.
const replayPasses = 9

// perCall accumulates replayed calls and their host time.
type perCall struct {
	ns    float64
	calls float64
}

func (p *perCall) add(nsPerCall float64, calls int) {
	p.ns += nsPerCall * float64(calls)
	p.calls += float64(calls)
}

func (p perCall) nsPerCall() float64 { return safeDiv(p.ns, p.calls) }

// replayTotals are the per-call costs of the layers whose entry points
// are too fine-grained to time in place: each is measured by feeding a
// captured stream into the public entry point of a fresh instance.
type replayTotals struct {
	translate, tbLookup, cacheRead, probe perCall
}

// sink keeps the replayed calls' results live.
var sink uint64

// probeSink holds the replay monitor behind the cpu.Probe interface, the
// way the machine calls it, so the call is not devirtualized.
var probeSink cpu.Probe

// timePasses returns the median over replayPasses of one pass's time per
// call; setup runs before each pass, outside the timing.
func timePasses(calls int, setup, pass func()) float64 {
	times := make([]float64, replayPasses)
	for i := range times {
		setup()
		start := time.Now()
		pass()
		times[i] = float64(time.Since(start)) / float64(calls)
	}
	return median(times)
}

// streams replays what tap t captured while its machine is still live.
// With memory management off (the bare machine) the TB is never
// consulted, so there is no TB replay, and mmu.Translate, which the
// machine still calls, is replayed over the cache's address stream:
// virtual addresses are physical there.
func (r *replayTotals) streams(t *tap) {
	t.m.Mem.SetInjector(nil)
	if n := len(t.upcs); n > 0 {
		r.probe.add(timePasses(n, func() {
			mon := core.NewMonitor()
			mon.Start()
			probeSink = mon
		}, func() {
			for _, upc := range t.upcs {
				probeSink.Count(upc, 1)
			}
		}), n)
	}
	if n := len(t.pas); n > 0 {
		var c *cache.Cache
		r.cacheRead.add(timePasses(n, func() {
			c, _ = cache.New(cache.DefaultConfig())
		}, func() {
			for _, ref := range t.pas {
				if c.Read(ref.addr, cache.Stream(ref.stream)) {
					sink++
				}
			}
		}), n)
	}
	vas, regs := t.vas, t.regs
	if n := len(vas); n > 0 {
		var buf *tb.TB
		r.tbLookup.add(timePasses(n, func() { buf = tb.New() }, func() {
			prev := uint32(0)
			for _, ref := range vas {
				if ref.regs != prev {
					buf.FlushProcess()
					prev = ref.regs
				}
				if _, hit := buf.Lookup(ref.addr, tb.Stream(ref.stream)); !hit {
					buf.Insert(ref.addr, ref.addr>>mmu.PageShift)
				}
			}
		}), n)
	} else {
		vas, regs = t.pas, []mmu.Registers{t.m.MMU}
	}
	if n := len(vas); n > 0 {
		r.translate.add(timePasses(n, func() {}, func() {
			for _, ref := range vas {
				pa, _ := mmu.Translate(ref.addr, &regs[ref.regs], t.m.Mem)
				sink += uint64(pa)
			}
		}), n)
	}
}

// genReplay is the checkpoint layer measured over snapshot generations
// on disk: each file's size, and the time to Decode it and Encode it
// again (the envelope's gob payload and SHA-256; the fsync belongs to the
// directory writer and is not in Encode).
type genReplay struct {
	bytes, encodeS, decodeS []float64
}

func replayGenerations(t *tracer, dir string) (genReplay, error) {
	var g genReplay
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".vaxck") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var snap *checkpoint.Snapshot
		start := time.Now()
		err = t.call("checkpoint.Decode", func() (err error) {
			snap, err = checkpoint.Decode(bytes.NewReader(data))
			return err
		})
		g.decodeS = append(g.decodeS, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		start = time.Now()
		err = t.call("checkpoint.Encode", func() error { return checkpoint.Encode(io.Discard, snap) })
		g.encodeS = append(g.encodeS, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		g.bytes = append(g.bytes, float64(len(data)))
		return nil
	})
	if err == nil && len(g.bytes) == 0 {
		err = fmt.Errorf("no checkpoint generations under %s", dir)
	}
	return g, err
}

// supervisedGenerations runs each profile under the run supervisor for
// three checkpoint periods, leaving three snapshot generations per
// profile — complete snapshots, OS state included — under dir.
func supervisedGenerations(dir string, ps []workload.Profile, every uint64) error {
	for i, p := range ps {
		_, err := workload.RunSupervised(context.Background(),
			workload.Spec{Profile: p, Cycles: 3 * every, Machine: cpu.Config{}},
			workload.Supervisor{
				CheckpointDir:   filepath.Join(dir, fmt.Sprintf("%02d-%s", i, p.Name)),
				CheckpointEvery: every,
			})
		if err != nil {
			return err
		}
	}
	return nil
}
