// Package cli holds the conventions shared by the commands in this
// repository. Failures go to stderr, prefixed with the command name, and
// the process exits non-zero; centralizing the helper keeps every
// command's behavior identical (and testable by grep: no command formats
// its own fatal error). The long-running commands also share the host
// profiling flags, -cpuprofile and -memprofile (Profiles).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Exitf reports a fatal error on stderr as "name: message" and exits
// with the given code. Profiles a command started are written first.
func Exitf(code int, name, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", name, fmt.Sprintf(format, args...))
	if finish != nil {
		if err := finish(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
	}
	os.Exit(code)
}

// Fatalf is Exitf with the conventional exit code 1.
func Fatalf(name, format string, args ...any) {
	Exitf(1, name, format, args...)
}

// Check is Fatalf on a non-nil error, a no-op otherwise.
func Check(name string, err error) {
	if err != nil {
		Fatalf(name, "%v", err)
	}
}

// Profiles holds the host profiling flags: a CPU profile of the whole
// run and a heap profile taken at its end, both in runtime/pprof's
// format for `go tool pprof`. With neither flag set the command runs
// exactly as without them.
type Profiles struct {
	cpu, mem string // output paths; empty means not asked for
}

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile at the end of the run to `file`")
	return p
}

// finish writes the profiles a command started; Start sets it and the
// first call clears it, so the profiles are written once whether the
// command returns or exits through Exitf.
var finish func() error

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the heap profile. A command defers
// the returned function; Exitf calls it too, so a run that fails or is
// interrupted still leaves its profiles. Errors are fatal to the command.
func (p *Profiles) Start(name string) (stop func()) {
	var cpu *os.File
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		Check(name, err)
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			Fatalf(name, "starting CPU profile: %v", err)
		}
		cpu = f
	}
	finish = func() error {
		finish = nil
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if p.mem != "" {
			errs = append(errs, writeHeapProfile(p.mem))
		}
		return errors.Join(errs...)
	}
	return func() {
		if finish != nil {
			Check(name, finish())
		}
	}
}

// writeHeapProfile writes the heap profile as of the last garbage
// collection, forced here so that it is current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}
