package cpu

import (
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"
)

// eachHandle calls visit with the path and a settable view of every
// microword handle in v, an addressable handle table: a struct of uint16
// addresses, specBank structs and arrays of them.
func eachHandle(v reflect.Value, path string, visit func(path string, h reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachHandle(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachHandle(v.Index(i), path+"["+strconv.Itoa(i)+"]", visit)
		}
	default:
		// Unexported fields are read-only through reflect; reach the
		// handle through its address.
		visit(path, reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem())
	}
}

// zeroHandles returns the path of every handle in *tbl that is not a
// defined microword. Address 0 is the reserved control-store location:
// a handle left out of uw's literal stays 0 and silently swallows its
// counts.
func zeroHandles(tbl any) []string {
	var bad []string
	eachHandle(reflect.ValueOf(tbl).Elem(), "uw", func(path string, h reflect.Value) {
		if h.Kind() != reflect.Uint16 || h.Uint() == 0 {
			bad = append(bad, path)
		}
	})
	return bad
}

// TestEveryHandleDefined: every field of uw holds a defined microword.
func TestEveryHandleDefined(t *testing.T) {
	if bad := zeroHandles(&uw); len(bad) > 0 {
		t.Fatalf("microword handles never initialised (address 0): %v", bad)
	}
}

// TestZeroHandleCaught: leaving any one handle out of the literal is
// caught, and named.
func TestZeroHandleCaught(t *testing.T) {
	c := uw
	n := 0
	eachHandle(reflect.ValueOf(&c).Elem(), "uw", func(path string, h reflect.Value) {
		n++
		saved := h.Uint()
		h.SetUint(0)
		if got := zeroHandles(&c); !slices.Equal(got, []string{path}) {
			t.Errorf("zeroing %s: walk reports %v", path, got)
		}
		h.SetUint(saved)
	})
	if want := CS.Len() - 1; n != want {
		t.Errorf("walked %d handles, the control store defines %d words", n, want)
	}
}
