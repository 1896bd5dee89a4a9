package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scoop/internal/netsim"
	"scoop/internal/trickle"
	"scoop/internal/workload"
)

// sameState compares two values of one type the way a mote would: by
// what they hold, not where. Slices compare by length and elements (a
// nil slice equals an empty one, capacity is not state), pointers by
// what they point at, and the fields that are wiring or allocation
// caches rather than RAM — the NodeAPI and clock, callbacks and a
// Trickle's Sender (the node itself), the shared config, run
// statistics and sampler, the network's free lists and blocks
// (networkShared) and the scratch
// buffers every use overwrites (scratchFields) — are skipped.
// It returns the path of the first difference, or "".
func sameState(a, b reflect.Value, path string) string {
	t := a.Type()
	switch {
	case t.Kind() == reflect.Func, t.Kind() == reflect.Chan, t == reflect.TypeFor[trickle.Sender](),
		t == reflect.TypeOf(&netsim.NodeAPI{}), t == reflect.TypeOf(&netsim.Simulator{}),
		t == reflect.TypeOf(&RunStats{}), t == reflect.TypeOf(Config{}),
		strings.HasPrefix(t.Name(), "FreeList["), scratchFields[path[strings.LastIndexByte(path, '.')+1:]],
		t.Kind() == reflect.Pointer && networkShared[strings.SplitN(t.Elem().Name(), "[", 2)[0]]:
		return ""
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side only"
			}
			return ""
		}
		if t.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return path + ": dynamic types differ"
		}
		return sameState(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if d := sameState(a.Field(i), b.Field(i), path+"."+t.Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d, want %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != 0 || b.Len() != 0 {
			return path + ": a map holding state" // none is expected; compare it if one appears
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v, want %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d, want %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d, want %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v, want %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q, want %q", path, a.String(), b.String())
		}
	default:
		return path + ": unhandled kind " + t.Kind().String()
	}
	return ""
}

// gossipKeys returns the keys g is gossiping, read from its item array:
// a Trickle holds exactly its live keys and has no accessor for them.
func gossipKeys(g *trickle.Trickle) []trickle.Key {
	items := reflect.ValueOf(g).Elem().FieldByName("items")
	keys := make([]trickle.Key, items.Len())
	for i := range keys {
		keys[i] = trickle.Key(items.Index(i).FieldByName("key").Uint())
	}
	return keys
}

// scratchFields names the scratch buffers sameState skips: sendSummary's
// copy of the recent readings, handleData's regroup buffer, the spare batch
// buffers and Trickle's send list.
var scratchFields = map[string]bool{"recentVals": true, "regroup": true, "spareBatches": true, "due": true}

// networkShared names the types of what a node points to that its
// network owns — free lists, blocks and the shared index generations —
// which a reboot keeps and sameState skips.
var networkShared = map[string]bool{"shared": true, "Blocks": true, "Generations": true}

// TestRestartClearsStateInPlace reboots a relay mid-run through
// Network.Restart. Its tree, tables, Trickles, chunk set, buffers,
// dedup and query state all hold something by then; after the reboot
// the node must hold exactly what a never-run node holds after its
// first Init at the same instant ("RAM is lost"), and a reboot must
// allocate no more than the three timers it arms (tree, sampling,
// summary): every structure is cleared in place, its arrays kept as
// allocation caches. On the parent commit, which rebuilt them, a
// reboot here costs 22 objects.
func TestRestartClearsStateInPlace(t *testing.T) {
	tn := newTestNet(t, chainTopo(5, 0.95), testConfig(), nil, 3)
	for at := 4 * netsim.Minute; at < 9*netsim.Minute; at += 20 * netsim.Second {
		tn.sim.At(at, func() {
			tn.base.IssueQuery(workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: tn.sim.Now()})
		})
	}
	// Reboot 2 s after the last query, while the node still gossips it:
	// a Trickle forgets an item once it retires.
	tn.sim.Run(8*netsim.Minute + 42*netsim.Second)
	node := tn.nodes[2] // relays summaries, data and replies for 3 and 4
	switch {
	case !node.tree.HasRoute(), node.tree.Neighbors.Len() == 0, len(node.tree.Descendants.Tracked()) == 0,
		node.cur == nil, len(node.chunks.Generation(node.cur.ID)) == 0, len(gossipKeys(&node.qGos)) == 0,
		len(node.queries) == 0, len(node.store.buf) == 0, node.recent.Len() == 0,
		len(node.seenSummaries.rows.ids) == 0, len(node.seenReplies.rows.ids) == 0, len(node.seenSummaries.spill) == 0:
		t.Fatal("the node holds too little state before the reboot for the comparison to mean anything")
	}

	api := node.api
	tn.net.Restart(2)
	fresh := NewNode(tn.cfg, tn.stats, idSampler, 2*netsim.Minute)
	fresh.Init(api) // the never-run node, booted at the same instant on the same radio
	if d := sameState(reflect.ValueOf(node).Elem(), reflect.ValueOf(fresh).Elem(), "Node"); d != "" {
		t.Fatalf("rebooted node differs from a never-run one at %s", d)
	}

	allocs := testing.AllocsPerRun(50, func() { tn.net.Restart(2) })
	t.Logf("a reboot allocates %v objects", allocs)
	if allocs > 3 {
		t.Fatalf("a reboot allocates %v objects, want at most the 3 timers it arms", allocs)
	}
}
