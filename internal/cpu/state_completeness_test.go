package cpu

import (
	"reflect"
	"testing"
)

// TestIBStateCompleteness is the package-internal half of the snapshot
// completeness check in internal/checkpoint (the ibox type is unexported,
// so reflection from that package cannot reach it): every ibox field must
// either travel in IBState or carry a justified exemption.
func TestIBStateCompleteness(t *testing.T) {
	captured := map[string]string{
		"ptr":           "IBState.Ptr",
		"valid":         "IBState.Valid",
		"fillPending":   "IBState.FillPending",
		"fillDone":      "IBState.FillDone",
		"fillBytes":     "IBState.FillBytes",
		"tbMissPending": "IBState.TBMissPending",
		"tbMissVA":      "IBState.TBMissVA",
		"advanced":      "IBState.Advanced",
		"stats":         "IBState.Stats",
	}
	exempt := map[string]string{
		"m":       "wiring to the owning machine",
		"scratch": "transient decode buffer; its contents never outlive one peek/consume",
		"win":     "derived frame window: a slice of the memory array taken through vtop; ImportState bumps the memory generation, so the next peek retakes it",
		"winTag":  "derived: names the page win maps; a peek off that page retakes the window",
		"winPA":   "derived: the physical address of win[0], retaken with win",
		"winGen":  "derived: only compared with the memory generation, which ImportState bumps",
		"winRegs": "derived: only compared with the MMU registers at instruction boundaries; ImportState drops the window",
	}
	typ := reflect.TypeOf(ibox{})
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	for name := range captured {
		if !fields[name] {
			t.Errorf("captured table names unknown ibox field %q", name)
		}
		if _, both := exempt[name]; both {
			t.Errorf("ibox field %q is both captured and exempted", name)
		}
	}
	for name := range exempt {
		if !fields[name] {
			t.Errorf("exemption table names unknown ibox field %q", name)
		}
	}
	for name := range fields {
		if captured[name] == "" && exempt[name] == "" {
			t.Errorf("ibox field %q is neither captured in IBState nor exempted", name)
		}
	}
}
