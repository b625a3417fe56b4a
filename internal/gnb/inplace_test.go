package gnb

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"github.com/midband5g/midband/internal/channel"
)

// The slot path writes its results field by field into caller or owner
// storage (Channel.StepInto's Sample, tbPath.alloc's Alloc, the cell's
// UEAlloc entries). A field that one of those writes forgets would keep
// whatever the storage held before. The tests here step two identical
// simulators, one writing into zeroed storage and one into storage
// poisoned through reflection, and require the same bits from both: a
// field added later without a write fails them.

// poison sets every leaf of v (addressable) to a poison value: NaN
// floats, −1 signed integers, all-ones unsigned integers and true bools,
// unexported fields included. A struct pointer is pointed at a poisoned
// value; slices are left alone.
func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			}
			poison(f)
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		if v.Type().Elem().Kind() == reflect.Struct {
			p := reflect.New(v.Type().Elem())
			poison(p.Elem())
			v.Set(p)
		}
	}
}

// poisoned fills *p with poison and returns p.
func poisoned[T any](p *T) *T {
	poison(reflect.ValueOf(p).Elem())
	return p
}

// diffBits returns the path of the first leaf where a and b differ in
// their bits ("" when they agree everywhere), following pointers and
// slices element by element.
func diffBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return diffBits(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.Len() != b.Len() {
			return path + " (length)"
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(a.Index(i), b.Index(i), path+"[]"); d != "" {
				return d
			}
		}
	}
	return ""
}

// requireSameBits fails when got, written into poisoned storage,
// differs from want, written into zeroed storage.
func requireSameBits[T any](t *testing.T, slot int, what string, want, got *T) {
	t.Helper()
	if d := diffBits(reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem(), what); d != "" {
		t.Fatalf("slot %d: %s keeps the poison its storage held before the step", slot, d)
	}
}

// TestPoisonCoversEveryField requires poison to move every leaf of the
// checked structs off its zero value, or a missing write to that leaf
// would go unseen.
func TestPoisonCoversEveryField(t *testing.T) {
	var walk func(reflect.Value, string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		}
		if v.IsZero() {
			t.Errorf("%s is not poisoned", path)
		}
	}
	walk(reflect.ValueOf(*poisoned(&channel.Sample{})), "Sample")
	walk(reflect.ValueOf(*poisoned(&UEAlloc{})), "UEAlloc")
	walk(reflect.ValueOf(*poisoned(&SlotResult{})), "SlotResult")
}

func TestChannelStepIntoRewritesSample(t *testing.T) {
	cfg := channel.Config{
		CarrierFreqMHz: 28000,
		Seed:           5,
		Route: channel.Route{
			Waypoints: []channel.Point{{X: -300}, {X: 300, Y: 40}},
			SpeedMPS:  channel.MobilityDriving,
		},
		Deployment:  channel.Deployment{Sites: []channel.Point{{}, {X: 250, Y: 90}}, TxPowerDBmPerRE: 18},
		SlowSigmaDB: 1,
		Blockage:    &channel.DefaultBlockage,
	}
	clean, err := channel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := channel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outages := 0
	for slot := 0; slot < 20_000; slot++ {
		var want, got channel.Sample
		clean.StepInto(&want)
		dirty.StepInto(poisoned(&got))
		requireSameBits(t, slot, "Sample", &want, &got)
		if want.Outage {
			outages++
		}
	}
	if outages == 0 {
		t.Fatal("no outage slot: the run does not exercise every Sample write")
	}
}

func TestCarrierStepIntoRewritesAllocs(t *testing.T) {
	clean, dirty := testCarrier(t, nil), testCarrier(t, nil)
	dl, ul, nacks := 0, 0, 0
	for slot := 0; slot < 20_000; slot++ {
		var want, got SlotResult
		poisoned(&dirty.dlAlloc)
		poisoned(&dirty.ulAlloc)
		clean.StepInto(&want, FullBuffer, FullBuffer)
		dirty.StepInto(poisoned(&got), FullBuffer, FullBuffer)
		requireSameBits(t, slot, "SlotResult", &want, &got)
		if want.DL != nil {
			dl++
			if !want.DL.ACK {
				nacks++
			}
		}
		if want.UL != nil {
			ul++
		}
	}
	if dl == 0 || ul == 0 || nacks == 0 {
		t.Fatalf("%d DL allocs (%d NACKs) and %d UL allocs: the run does not exercise every Alloc write", dl, nacks, ul)
	}
}

func TestCellStepRewritesUEAllocs(t *testing.T) {
	ues := []channel.Point{{X: 0, Y: 45}, {X: 0, Y: 90}, {X: 0, Y: 117}, {X: 0, Y: 150}}
	for _, model := range []CellModel{CellModelShare, CellModelContention} {
		for _, pol := range lockstepPolicies {
			t.Run(model.String()+"/"+pol.String(), func(t *testing.T) {
				cfg := testCellConfig(t, pol, ues)
				cfg.Model = model
				clean, err := NewCell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				dirty, err := NewCell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				allocs := 0
				for slot := 0; slot < 4000; slot++ {
					store := dirty.allocs[:cap(dirty.allocs)]
					for i := range store {
						poisoned(&store[i])
					}
					want, got := clean.Step(), dirty.Step()
					requireSameBits(t, slot, "CellSlot", &want, &got)
					allocs += len(want.Allocs)
				}
				if allocs == 0 {
					t.Fatal("no UE allocs: the run does not exercise the UEAlloc writes")
				}
			})
		}
	}
}
