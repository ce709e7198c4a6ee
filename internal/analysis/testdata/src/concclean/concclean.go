// Package concclean is the shared clean negative for the three concflow
// analyzers: a miniature coordinator/worker farm that honors every
// contract — the worker exits when jobs closes, jobs has one closing
// owner, and the total is read only across the Wait barrier.
package concclean

// WaitGroup models sync.WaitGroup (matched by type name).
type WaitGroup struct{}

func (g *WaitGroup) Add(int) {}
func (g *WaitGroup) Done()   {}
func (g *WaitGroup) Wait()   {}

type runner struct {
	jobs    chan int
	results chan int
	stop    chan struct{}
	wg      *WaitGroup
	total   int
}

// Sweep dispatches n jobs, drains the pool, and merges after the
// barrier.
func Sweep(n int) int {
	r := &runner{
		jobs:    make(chan int, 4),
		results: make(chan int, 4),
		stop:    make(chan struct{}),
		wg:      &WaitGroup{},
	}
	r.wg.Add(1)
	go r.work()
	for i := 0; i < n; i++ {
		r.jobs <- i
	}
	close(r.jobs)
	r.wg.Wait()
	close(r.results)
	for v := range r.results {
		r.total += v
	}
	return r.total
}

// work exits when jobs closes (the range ends) or stop fires: a
// statically guaranteed exit path either way.
func (r *runner) work() {
	defer r.wg.Done()
	for j := range r.jobs {
		select {
		case r.results <- j * 2:
		case <-r.stop:
			return
		}
	}
}
