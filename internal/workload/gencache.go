package workload

import (
	"sync"

	"vax780/internal/asm"
)

// The generated-program cache. Generation is deterministic in GenConfig
// (a comparable value: mix weights, geometry, seed), and the consumer —
// vmos.AddProcess — only copies the program's bytes into machine memory,
// so one shared immutable entry can back any number of processes. The
// win is mass construction and re-construction: a fleet (internal/farm)
// rebuilding an instance after a worker death, or a checkpoint resume
// rebuilding its session, pays generation and assembly once per distinct
// program instead of once per attempt. An entry is the program's
// non-zero runs (asm.Sparse), a few KB: the ~128 KB of zeros in its data
// region are not kept, so a full cache holds tens of MB, not hundreds.
var genCache = struct {
	sync.Mutex
	byConfig map[GenConfig]*asm.Sparse
}{byConfig: make(map[GenConfig]*asm.Sparse)}

// genCacheCap bounds the cache for sweeps over many distinct seeds; a
// full cache is dropped wholesale rather than evicted piecemeal, since
// regeneration is cheap. Retries and rescues of a bounded instance set
// stay well under the cap, but every fleet instance adds about five
// entries (one per process of its profile), so a sweep of about 850
// instances or more fills it and starts over.
const genCacheCap = 4096

// generateShared returns the shared generated program for one
// configuration, generating it on first use. The returned program is
// shared and must be treated as read-only.
func generateShared(cfg GenConfig) (*asm.Sparse, error) {
	genCache.Lock()
	sp, ok := genCache.byConfig[cfg]
	genCache.Unlock()
	if ok {
		return sp, nil
	}
	// Generate outside the lock so concurrent workers building different
	// programs don't serialize; duplicate fills for the same key are
	// byte-identical, so last-write-wins is harmless.
	im, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	sp = im.Sparse()
	genCache.Lock()
	if len(genCache.byConfig) >= genCacheCap {
		genCache.byConfig = make(map[GenConfig]*asm.Sparse)
	}
	genCache.byConfig[cfg] = sp
	genCache.Unlock()
	return sp, nil
}
