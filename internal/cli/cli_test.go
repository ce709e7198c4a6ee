package cli

import (
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfiles runs the shared profiling flags end to end: parse them,
// start, stop, and require each file to be a non-empty gzip stream, the
// container runtime/pprof writes its profiles in.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := ProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpuPath, "-memprofile", memPath}); err != nil {
		t.Fatal(err)
	}
	p.Start("test")()
	if finish != nil {
		t.Error("stop left the profiles pending")
	}
	for _, path := range []string{cpuPath, memPath} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: not gzip: %v", filepath.Base(path), err)
		}
		if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
			t.Errorf("%s: %d bytes uncompressed, err %v", filepath.Base(path), n, err)
		}
	}
}
