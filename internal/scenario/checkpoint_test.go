package scenario

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/testbed"
)

// These tests pin the checkpoint rule (DESIGN.md §3h): every
// checkpointed component keeps what a run changes in one state struct,
// its Checkpoint saves a copy in the component's saved field, and its
// Restore copies that copy back into the maps and slices the component
// already holds. checkpointFields declares, per component type, every
// field that lives outside the state struct and why Restore may leave it
// alone. TestCheckpointCoversEveryField holds each type to that list, so
// a new field fails until it is classified; TestResetRestoresCheckpointState
// checks that Reset really brings every state struct back.

// fieldClass lists the fields of one checkpointed type that live outside
// its state struct.
type fieldClass struct {
	// parts are checkpointed sub-components: this component's own
	// Checkpoint and Restore call theirs.
	parts []string
	// config is set at Build or pathology install and never changed by
	// a run: configuration, wiring and install-time hooks.
	config []string
	// scratch holds buffers whose content means nothing between calls.
	scratch []string
	// pending holds timers, queued events and in-flight frames: Restore
	// drops them, and the clock re-arms the timers pending at the
	// checkpoint.
	pending []string
	// state names the state field when it is not the embedded struct
	// whose type saved points to.
	state string
}

// checkpointFields is keyed by reflect.Type.String() of every
// checkpointed component type.
var checkpointFields = map[string]fieldClass{
	"netsim.Network": {
		parts:   []string{"Clock"},
		config:  []string{"ringsOff"},
		scratch: []string{"arena", "fanoutFree"},
		pending: []string{"queue"},
	},
	"netsim.Clock": {
		pending: []string{"armed", "timers"},
	},
	"netsim.Switch": {
		config:  []string{"net", "scopeTrunks"},
		scratch: []string{"scratch"},
	},
	// A NIC's peer is wiring: switches uncable the ports attached since
	// the checkpoint when they restore.
	"netsim.NIC": {
		config:  []string{"net", "mac", "peer", "handler", "impair"},
		pending: []string{"ring", "ringHead", "ringCount", "ringDraining"},
	},
	"mgmtswitch.Switch": {
		parts:  []string{"Switch"},
		config: []string{"cfg", "net", "mac", "linkLocal", "blockedPorts"},
	},
	"gateway5g.Gateway": {
		parts:   []string{"lan", "wan", "DHCP", "NAT44", "NAT64"},
		config:  []string{"cfg", "net", "linkLocal", "wanPeerMAC", "haveWAN", "raDown"},
		scratch: []string{"txScratch"},
	},
	"dhcp4.Server": {
		config: []string{"cfg", "now", "domainOf", "domainIndex", "domainPools"},
	},
	"nat44.Translator": {
		parts:   []string{"table"},
		config:  []string{"public"},
		scratch: []string{"outScratch", "inScratch"},
	},
	"nat64.Translator": {
		parts:   []string{"table"},
		config:  []string{"prefix", "public"},
		scratch: []string{"out64", "out46"},
	},
	"napt.Table": {
		config: []string{"now", "portMin", "portMax", "idle"},
	},
	"dns.Cache": {
		config: []string{"Inner", "Now", "NegativeTTL", "MaxEntries"},
	},
	"dns.QueryLog": {
		config: []string{"Inner"},
	},
	"dns64.Resolver": {
		config: []string{"Inner", "Prefix", "Exclude", "SynthTTL", "Suppress"},
	},
	"dnspoison.Wildcard": {
		config: []string{"Redirect", "TTL", "Upstream", "Exempt"},
	},
	"dnspoison.RPZ": {
		config: []string{"Redirect", "TTL", "Upstream"},
	},
	"hoststack.Host": {
		parts:   []string{"NIC"},
		config:  []string{"Net", "B", "name", "sel", "linkLocal", "gleanND"},
		scratch: []string{"raScratch", "l4Scratch", "l3Scratch", "srcScratch"},
	},
	// The poisoned Pi's resolver sits in an atomic.Value, so its state
	// is that field itself.
	"testbed.switchableResolver": {
		state: "active",
	},
	"testbed.Fabric": {
		parts:  []string{"Switches"},
		config: []string{"tb", "spec", "rowStart"},
	},
}

// checkpointed is one component found in a world: its pointer and type.
type checkpointed struct {
	ptr reflect.Value // pointer to the component struct
	typ reflect.Type  // the struct type
}

// name labels a component in failure messages.
func (c checkpointed) name() string {
	return fmt.Sprintf("%s@%#x", c.typ, c.ptr.Pointer())
}

// field returns the depth-0 field of struct value v called name.
func field(v reflect.Value, name string) reflect.Value {
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name == name {
			return v.Field(i)
		}
	}
	return reflect.Value{}
}

// components walks the world's component list and every part, in
// order, each component once.
func components(t *testing.T, tb *testbed.Testbed) []checkpointed {
	t.Helper()
	var out []checkpointed
	seen := map[uintptr]bool{}
	var walk func(p reflect.Value)
	walk = func(p reflect.Value) {
		if p.Kind() == reflect.Interface {
			p = p.Elem()
		}
		if p.IsNil() || seen[p.Pointer()] {
			return
		}
		seen[p.Pointer()] = true
		c := checkpointed{ptr: p, typ: p.Type().Elem()}
		out = append(out, c)
		for _, part := range checkpointFields[c.typ.String()].parts {
			f := field(p.Elem(), part)
			if f.Kind() == reflect.Slice {
				for i := 0; i < f.Len(); i++ {
					walk(f.Index(i))
				}
				continue
			}
			walk(f)
		}
	}
	list := field(reflect.ValueOf(tb).Elem(), "components")
	if list.Len() == 0 {
		t.Fatal("world has no checkpointed components")
	}
	for i := 0; i < list.Len(); i++ {
		walk(list.Index(i))
	}
	return out
}

// stateOf returns a component's live state and its saved copy.
func stateOf(t *testing.T, c checkpointed) (live, saved reflect.Value) {
	t.Helper()
	v := c.ptr.Elem()
	saved = field(v, "saved")
	if !saved.IsValid() {
		t.Fatalf("%s has no saved field", c.typ)
	}
	if name := checkpointFields[c.typ.String()].state; name != "" {
		return field(v, name), saved
	}
	if saved.Kind() != reflect.Pointer {
		t.Fatalf("%s.saved is %s, want a pointer to its state struct", c.typ, saved.Type())
	}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Anonymous && f.Type == saved.Type().Elem() {
			live = v.Field(i)
		}
	}
	if !live.IsValid() {
		t.Fatalf("%s embeds no %s", c.typ, saved.Type().Elem())
	}
	if saved.IsNil() {
		t.Fatalf("%s was never checkpointed", c.name())
	}
	return live, saved.Elem()
}

// TestCheckpointCoversEveryField holds every checkpointed type in two
// worlds (a wildcard-poisoned fabric world and an RPZ flat world) to
// checkpointFields: each field is the state struct, saved, or declared
// in exactly one class; every declared name exists; and the table has
// no entry for a type neither world contains.
func TestCheckpointCoversEveryField(t *testing.T) {
	fabric, err := testbed.Build(testbed.FabricTopology(testbed.DefaultOptions(), 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	opt := testbed.DefaultOptions()
	opt.Poison = testbed.PoisonRPZ
	rpz, err := testbed.Build(testbed.DefaultTopology(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer rpz.Close()

	found := map[string]bool{}
	for _, tb := range []*testbed.Testbed{fabric, rpz} {
		if err := tb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, c := range components(t, tb) {
			name := c.typ.String()
			if found[name] {
				continue
			}
			found[name] = true
			class, ok := checkpointFields[name]
			if !ok {
				t.Errorf("%s is checkpointed but has no checkpointFields entry", name)
				continue
			}
			declared := map[string]string{}
			for kind, names := range map[string][]string{
				"parts": class.parts, "config": class.config, "scratch": class.scratch,
				"pending": class.pending,
			} {
				for _, n := range names {
					if prev, dup := declared[n]; dup {
						t.Errorf("%s.%s is declared both %s and %s", name, n, prev, kind)
					}
					declared[n] = kind
				}
			}
			live, _ := stateOf(t, c)
			stateName := class.state
			for i := 0; i < c.typ.NumField(); i++ {
				f := c.typ.Field(i)
				if f.Name == "saved" || (f.Anonymous && f.Type == live.Type()) || f.Name == stateName {
					continue
				}
				if _, ok := declared[f.Name]; !ok {
					t.Errorf("%s.%s is neither in the state struct nor declared in checkpointFields: "+
						"move it into the state struct or declare why Restore may skip it", name, f.Name)
				}
				delete(declared, f.Name)
			}
			for n, kind := range declared {
				t.Errorf("checkpointFields declares %s.%s (%s), which does not exist", name, n, kind)
			}
		}
	}
	for name := range checkpointFields {
		if !found[name] {
			t.Errorf("checkpointFields names %s, which no world checkpoints", name)
		}
	}
}

// dumper renders a value for comparison: maps in key order, nil and
// empty containers alike, funcs by code pointer, pointers to other
// checkpointed components by address (they are compared on their own),
// and any other pointer by what it points to.
type dumper struct {
	b    strings.Builder
	seen map[uintptr]int
}

var atomicValueType = reflect.TypeFor[atomic.Value]()

func isComponent(t reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return false
	}
	_, ok := t.FieldByName("saved")
	return ok
}

func dump(v reflect.Value) string {
	d := &dumper{seen: map[uintptr]int{}}
	d.value(v)
	return d.b.String()
}

func (d *dumper) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		d.b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		d.b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		d.b.WriteString(strconv.Quote(v.String()))
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		fmt.Fprintf(&d.b, "%s@%#x", v.Kind(), v.Pointer())
	case reflect.Interface:
		if v.IsNil() {
			d.b.WriteString("nil")
			return
		}
		d.value(v.Elem())
	case reflect.Pointer:
		switch {
		case v.IsNil():
			d.b.WriteString("nil")
		case isComponent(v.Type().Elem()):
			fmt.Fprintf(&d.b, "&%s@%#x", v.Type().Elem(), v.Pointer())
		default:
			if n, ok := d.seen[v.Pointer()]; ok {
				fmt.Fprintf(&d.b, "ref#%d", n)
				return
			}
			d.seen[v.Pointer()] = len(d.seen)
			d.b.WriteString("&")
			d.value(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == atomicValueType {
			d.value(v.Field(0))
			return
		}
		d.b.WriteString(v.Type().String() + "{")
		for i := 0; i < v.NumField(); i++ {
			d.b.WriteString(v.Type().Field(i).Name + ":")
			d.value(v.Field(i))
			d.b.WriteString(" ")
		}
		d.b.WriteString("}")
	case reflect.Array, reflect.Slice:
		d.b.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
			d.b.WriteString(" ")
		}
		d.b.WriteString("]")
	case reflect.Map:
		keys := v.MapKeys()
		dumped := make([]string, len(keys))
		for i, k := range keys {
			dumped[i] = dump(k)
		}
		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return dumped[order[a]] < dumped[order[b]] })
		d.b.WriteString("map[")
		for _, i := range order {
			d.b.WriteString(dumped[i] + ":")
			d.value(v.MapIndex(keys[i]))
			d.b.WriteString(" ")
		}
		d.b.WriteString("]")
	default:
		t := v.Type()
		panic("dump: unhandled kind " + t.Kind().String() + " in " + t.String())
	}
}

// storage records the maps and slices among a state struct's fields:
// their data pointers, and a slice's capacity.
type storage struct {
	ptr uintptr
	cap int
}

func storageOf(state reflect.Value) map[string]storage {
	out := map[string]storage{}
	if state.Kind() != reflect.Struct || state.Type() == atomicValueType {
		return out
	}
	for i := 0; i < state.NumField(); i++ {
		f := state.Field(i)
		switch f.Kind() {
		case reflect.Map:
			if !f.IsNil() {
				out[state.Type().Field(i).Name] = storage{ptr: f.Pointer()}
			}
		case reflect.Slice:
			if f.Cap() > 0 {
				out[state.Type().Field(i).Name] = storage{ptr: f.Pointer(), cap: f.Cap()}
			}
		}
	}
	return out
}

// sharedStorage reports the first map or slice, at any depth of value
// nesting, that a and b (two values of one type) both reference.
// Pointers are not followed: the records they reach are compared by
// content instead.
func sharedStorage(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Map:
		if a.IsNil() || b.IsNil() {
			return ""
		}
		if a.Pointer() == b.Pointer() {
			return path
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); bv.IsValid() {
				if p := sharedStorage(path+"["+dump(k)+"]", a.MapIndex(k), bv); p != "" {
					return p
				}
			}
		}
	case reflect.Slice:
		if a.Cap() > 0 && b.Cap() > 0 && a.Pointer() == b.Pointer() {
			return path
		}
		for i := 0; i < min(a.Len(), b.Len()); i++ {
			if p := sharedStorage(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); p != "" {
				return p
			}
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if p := sharedStorage(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); p != "" {
				return p
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p := sharedStorage(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); p != "" {
				return p
			}
		}
	case reflect.Interface:
		if !a.IsNil() && !b.IsNil() && a.Elem().Type() == b.Elem().Type() {
			return sharedStorage(path, a.Elem(), b.Elem())
		}
	}
	return ""
}

// dirty overwrites every scalar the state holds by value — numbers,
// bools, strings, timestamps, addresses — with a different value, and
// gives every nil map and slice storage of its own, so a Restore that
// fails to copy any field back shows, whether or not the run happened
// to change it. Entries and pointers are left alone: the storage and
// content checks cover them.
func dirty(v reflect.Value) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7919)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 7919)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + math.Pi)
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Map:
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
	case reflect.Slice:
		if v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 0, 1))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			dirty(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == atomicValueType {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			dirty(v.Field(i))
		}
	}
}

// worldSnapshot is every component's state dump at the checkpoint, and
// the timers pending then.
type worldSnapshot struct {
	states map[uintptr]string
	timers string
}

func snapshot(t *testing.T, tb *testbed.Testbed) worldSnapshot {
	t.Helper()
	snap := worldSnapshot{states: map[uintptr]string{}, timers: pendingTimers(tb)}
	for _, c := range components(t, tb) {
		live, _ := stateOf(t, c)
		snap.states[c.ptr.Pointer()] = dump(live)
	}
	return snap
}

// usable turns a value read through unexported fields into one whose
// methods can be called and whose fields can be set.
func usable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// eachTimer calls fn for every timer pending on the world's clock.
func eachTimer(tb *testbed.Testbed, fn func(*netsim.Timer)) {
	timers := field(reflect.ValueOf(tb.Net.Clock).Elem(), "timers")
	for i := 0; i < timers.Len(); i++ {
		fn(usable(timers.Index(i)).Interface().(*netsim.Timer))
	}
}

// pendingTimers lists the pending timers' deadlines, arm sequence
// numbers and stopped flags, in order.
func pendingTimers(tb *testbed.Testbed) string {
	var out []string
	eachTimer(tb, func(tm *netsim.Timer) {
		v := reflect.ValueOf(tm).Elem()
		out = append(out, fmt.Sprintf("%s/%d/%v", dump(field(v, "when")), field(v, "seq").Uint(), field(v, "stopped").Bool()))
	})
	sort.Strings(out)
	return strings.Join(out, " ")
}

// dirtyPending leaves work behind that Reset must discard: a frame in
// flight, a timer armed past the checkpoint, every pending timer and
// every timer pending at the checkpoint stopped, and the intervention
// rolled back.
func dirtyPending(tb *testbed.Testbed) {
	tb.HealthyPi.NIC.Transmit(netsim.Frame{
		Dst: tb.Gateway.LANNIC().MAC(), EtherType: netsim.EtherTypeIPv6, Payload: make([]byte, 64),
	})
	var timers []*netsim.Timer
	eachTimer(tb, func(tm *netsim.Timer) { timers = append(timers, tm) })
	armed := field(reflect.ValueOf(tb.Net.Clock).Elem(), "armed")
	for i := 0; i < armed.Len(); i++ {
		timers = append(timers, usable(armed.Index(i)).Interface().(*netsim.Timer))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	tb.Net.Clock.AfterFunc(time.Hour, func() {})
	tb.RollBackIntervention()
}

// checkNothingPending fails unless the world's pending work after Reset
// is exactly the checkpoint's: no queued event, no frame in the ring of
// any infrastructure or switch-port NIC, every payload buffer the arena
// allocated back on its free lists, and the checkpoint's timers and
// only those.
func checkNothingPending(t *testing.T, tb *testbed.Testbed, snap worldSnapshot) {
	t.Helper()
	net := reflect.ValueOf(tb.Net).Elem()
	if n := field(net, "queue").Len(); n != 0 {
		t.Errorf("%d events still queued after Reset", n)
	}
	nics := []*netsim.NIC{tb.Gateway.LANNIC(), tb.Internet.Host.NIC, tb.HealthyPi.NIC, tb.PoisonPi.NIC, tb.DHCPPi.NIC}
	switches := []*netsim.Switch{tb.Switch.Switch}
	if tb.Fabric != nil {
		switches = append(switches, tb.Fabric.Switches...)
	}
	for _, sw := range switches {
		for i := 0; i < sw.NumPorts(); i++ {
			nics = append(nics, sw.PortNIC(i))
		}
	}
	for _, nc := range nics {
		if n := field(reflect.ValueOf(nc).Elem(), "ringCount").Int(); n != 0 {
			t.Errorf("NIC %v still holds %d frames in its ring after Reset", nc.MAC(), n)
		}
	}
	arena := field(net, "arena")
	free := 0
	for c := 0; c < field(arena, "free").Len(); c++ {
		free += field(arena, "free").Index(c).Len()
	}
	if allocated := field(arena, "allocated").Uint(); uint64(free) != allocated {
		t.Errorf("Reset left %d of %d payload buffers outstanding", allocated-uint64(free), allocated)
	}
	if got := pendingTimers(tb); got != snap.timers {
		t.Errorf("pending timers after Reset:\n  got:  %s\n  want: %s", got, snap.timers)
	}
}

// resetAndCheck dirties every component's state and leaves pending work
// behind, Resets the world and checks each component against the
// checkpoint: its state and its saved copy both equal the snapshot,
// every map and slice the state held went on being used, and no map or
// slice is shared with the saved copy. The run's clients must come out
// uncabled and the pending work must be the checkpoint's.
func resetAndCheck(t *testing.T, tb *testbed.Testbed, snap worldSnapshot) {
	t.Helper()
	clients := slices.Clone(tb.Clients)
	dirtyPending(tb)
	comps := components(t, tb)
	before := make([]map[string]storage, len(comps))
	for i, c := range comps {
		live, _ := stateOf(t, c)
		dirty(live)
		before[i] = storageOf(live)
	}
	if err := tb.Reset(); err != nil {
		t.Fatal(err)
	}
	checkNothingPending(t, tb, snap)
	for _, h := range clients {
		if !field(reflect.ValueOf(h.NIC).Elem(), "peer").IsNil() {
			t.Errorf("run client %s is still cabled to the switch after Reset", h.Name())
		}
	}
	for i, c := range comps {
		live, saved := stateOf(t, c)
		want, ok := snap.states[c.ptr.Pointer()]
		if !ok {
			t.Errorf("%s was not in the world at the checkpoint", c.name())
			continue
		}
		if got := dump(live); got != want {
			t.Errorf("%s: state after Reset differs from the checkpoint\n%s", c.name(), firstDiff(got, want))
		}
		if got := dump(saved); got != want {
			t.Errorf("%s: the saved copy changed since the checkpoint\n%s", c.name(), firstDiff(got, want))
		}
		if live.Type() == saved.Type() {
			if p := sharedStorage(c.typ.String(), live, saved); p != "" {
				t.Errorf("%s: %s is shared between the live state and the saved copy", c.name(), p)
			}
		}
		after := storageOf(live)
		savedLen := func(name string) int { return field(saved, name).Len() }
		for name, b := range before[i] {
			a := after[name]
			reuses := b.cap == 0 || b.cap >= savedLen(name)
			if reuses && a.ptr != b.ptr {
				t.Errorf("%s: Restore replaced %s instead of copying into it", c.name(), name)
			}
		}
	}
}

// firstDiff shows where two dumps part.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-160)
	return fmt.Sprintf("  got:  ...%s\n  want: ...%s", got[lo:min(len(got), i+160)], want[lo:min(len(want), i+160)])
}

// TestResetRestoresCheckpointState runs each reset regime (impairment,
// reboot churn, both stateful pathologies), heavy traffic and a fabric
// world on a checkpointed world, and checks after each Reset that every
// component's state equals its state at the checkpoint (see
// resetAndCheck).
func TestResetRestoresCheckpointState(t *testing.T) {
	const n = 10
	regs := resetRegimes(n)
	regs = append(regs, streamRegime{
		name: "traffic",
		fac: func(_ int64, _ int) SizedWorldFactory {
			return sized(testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)})
		},
		run: RunOptions{Traffic: &TrafficOptions{
			FlowsPerDevice: 2, FlowBytes: 16 << 10, Pace: 2 * time.Millisecond, ChurnFlows: 1,
		}},
	})
	for _, reg := range regs {
		t.Run(reg.name, func(t *testing.T) {
			devices := Population(1, n, DefaultMix())
			tb, err := reg.fac(1, n)(len(devices))
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			if err := tb.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			snap := snapshot(t, tb)
			for cycle := 1; cycle <= 2; cycle++ {
				RunWith(tb, devices, reg.run)
				resetAndCheck(t, tb, snap)
			}
		})
	}

	t.Run("fabric", func(t *testing.T) {
		spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 4)
		tb, err := testbed.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		if err := tb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snap := snapshot(t, tb)
		devices := Population(1, 1, DefaultMix())
		parkedAt := tb.Net.Clock.Now()
		for cycle := 1; cycle <= 2; cycle++ {
			// A world parked under key 0 serves the serial fabric run.
			pool := NewWorldPool()
			pool.Put(0, tb)
			if _, err := RunFabric(spec, FabricOptions{Seed: 1, ActorsPerDomain: 2, Pool: pool}); err != nil {
				t.Fatal(err)
			}
			if !tb.Net.Clock.Now().After(parkedAt) {
				t.Fatal("the fabric run did not use the checkpointed world")
			}
			// The run parks every client; leave one materialized.
			tb.Fabric.Materialize(0, "left-active", devices[0].Profile)
			resetAndCheck(t, tb, snap)
		}
	})
}

// TestResetRewindsResolverCounters pins the resolver counters to their
// checkpoint values after Reset: the DNS64 synthesis count and both
// poisoners' counts used to carry a pooled run's totals into the next.
func TestResetRewindsResolverCounters(t *testing.T) {
	const n = 24
	devices := Population(1, n, DefaultMix())
	for _, poison := range []testbed.PoisonPolicy{testbed.PoisonWildcard, testbed.PoisonRPZ} {
		opt := testbed.DefaultOptions()
		opt.Poison = poison
		tb, err := testbed.Build(testbed.ScaleTopology(opt, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		counters := func() []uint64 {
			c := []uint64{tb.Healthy64.Synthesized, tb.Healthy64.FlapSuppressed}
			if tb.Wildcard != nil {
				c = append(c, tb.Wildcard.Poisoned, tb.Wildcard.Forwarded)
			}
			if tb.RPZ != nil {
				c = append(c, tb.RPZ.Poisoned, tb.RPZ.Forwarded, tb.RPZ.PassedNXDomain)
			}
			return c
		}
		want := counters()
		RunWith(tb, devices, RunOptions{})
		if slices.Equal(counters(), want) {
			t.Fatalf("poison %v: the run moved no resolver counter, so the test shows nothing", poison)
		}
		if err := tb.Reset(); err != nil {
			t.Fatal(err)
		}
		if got := counters(); !slices.Equal(got, want) {
			t.Errorf("poison %v: resolver counters after Reset = %v, want the checkpoint's %v", poison, got, want)
		}
		tb.Close()
	}
}

// nicGroups reads a host NIC's multicast group refcounts.
func nicGroups(tb *testbed.Testbed) map[string]int64 {
	groups := field(reflect.ValueOf(tb.HealthyPi.NIC).Elem(), "nicState")
	out := map[string]int64{}
	iter := field(groups, "groups").MapRange()
	for iter.Next() {
		out[dump(iter.Key())] = iter.Value().Int()
	}
	return out
}

// TestResetRewindsNICGroups pins the healthy Pi's multicast group
// refcounts to their checkpoint values after every Reset. A reboot per
// device hands the Pi a SLAAC address from the rebooted gateway's new
// /64; Restore drops the address, and the NIC must drop the reference
// it took on that address's solicited-node group with it.
func TestResetRewindsNICGroups(t *testing.T) {
	const n = 10
	devices := Population(1, n, DefaultMix())
	tb, err := testbed.Build(ChaosSpec(1, n, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := nicGroups(tb)
	for cycle := 1; cycle <= 3; cycle++ {
		RunWith(tb, devices, RunOptions{RebootsPerDevice: 1, ConvergeTimeout: 30 * time.Second})
		if err := tb.Reset(); err != nil {
			t.Fatal(err)
		}
		if got := nicGroups(tb); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: healthy Pi group refcounts after Reset = %v, want the checkpoint's %v", cycle, got, want)
		}
	}
}

// TestResetAllocations pins Reset's cost: once a world has run one
// cycle, Reset copies every component's state into storage the
// component already holds, and the clock puts back the timers pending
// at the checkpoint instead of arming new ones, so Reset allocates
// nothing; the payloads of the frames it drops go back to the arena's
// free lists, which grow only while they warm up. The
// test measures with the collector off and one P, so that runtime work
// outside Reset (a collection, another P's cache) cannot count against
// it.
func TestResetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 25
	devices := Population(1, n, DefaultMix())
	tb, err := testbed.Build(ChaosSpec(1, n, 0, 0.1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	for cycle := 1; cycle <= 3; cycle++ {
		RunWith(tb, devices, RunOptions{RebootsPerDevice: 1, ConvergeTimeout: 30 * time.Second})
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := tb.Reset(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if got := ms.Mallocs - before; cycle > 1 && got != 0 {
			t.Errorf("cycle %d: Reset after a run allocated %d times, want 0", cycle, got)
		}
	}
	if got := testing.AllocsPerRun(20, func() { _ = tb.Reset() }); got != 0 {
		t.Errorf("Reset of a reset world allocates %.1f times per call, want 0", got)
	}
}
