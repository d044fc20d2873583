package cpu

import (
	"reflect"
	"testing"
)

// statsFill sets every counter of a Stats (arrays element-wise) to v.
func statsFill(v uint64) Stats {
	var s Stats
	rv := reflect.ValueOf(&s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(v)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(v)
			}
		default:
			panic("unexpected Stats field kind " + f.Kind().String())
		}
	}
	return s
}

// The drive loop credits skipped cycles with the quiet tick's Sub delta
// added n times (AddTimes), so a counter that Sub or AddTimes forgot would
// silently drop out of every report of a run with sleeping CPUs.
func TestStatsArithmeticCoversEveryField(t *testing.T) {
	got, d := statsFill(1), statsFill(7)
	if got.AddTimes(&d, 3); got != statsFill(22) {
		t.Errorf("AddTimes misses a field: %+v", got)
	}
	if got, want := statsFill(5).Add(statsFill(2)), statsFill(7); got != want {
		t.Errorf("Add misses a field: %+v", got)
	}
	if got, want := statsFill(5).Sub(statsFill(2)), statsFill(3); got != want {
		t.Errorf("Sub misses a field: %+v", got)
	}
}
