package core

import (
	"scoop/internal/index"
	"scoop/internal/netsim"
)

// shared is what the motes and the basestation of one network share
// (netsim.Shared): the free lists of the recycled payloads they send,
// and the blocks every array they grow comes from. A node takes an
// array on first use and regrows it in the blocks, so the network's
// protocol state allocates when the network needs more room, never
// once per node, while each node's state stays what it heard
// (DESIGN.md §12, "A grown array comes from its network"). The free
// lists and blocks are allocation caches, not mote RAM: a reboot keeps
// them.
type shared struct {
	hops      netsim.FreeList[dataHop]
	replies   netsim.FreeList[ReplyMsg]
	mappings  netsim.FreeList[MappingMsg]
	summaries netsim.FreeList[SummaryMsg]
	partials  netsim.FreeList[AggReplyMsg]
	combines  netsim.FreeList[aggCombine] // nodes' per-query combine buffers

	seen     seenBlocks
	readings netsim.Blocks[Reading]     // batches, regroup buffers, flash rings, replies, query results
	batches  netsim.Blocks[[]Reading]   // batchq values and spare batches
	queries  netsim.Blocks[*QueryMsg]   // pending answers and the queries a node gossips
	pending  netsim.Blocks[*aggCombine] // nodes' live combine buffers
	values   netsim.Blocks[int]         // summaries' copy of the recent readings
	wires    netsim.Blocks[uint16]      // the base's retry wire IDs of a query
	gens     index.Generations
}

// seenBlocks is where dedup tables, the batch queue and query records
// grow: row keys, dedup rows, their keys and bitset words, and flush
// sequence numbers.
type seenBlocks struct {
	ids     netsim.Blocks[netsim.NodeID]
	rows    netsim.Blocks[seenRow]
	keys    netsim.Blocks[uint64] // bitTable and Bitmap words past the inline ones
	spill   netsim.Blocks[uint64] // seenTable keys, carved up to seenSpillLongest (sharedOf)
	bitRows netsim.Blocks[bitRow]
	ids32   netsim.Blocks[uint32] // bitTable row keys and Node.aggSeq
}

// seenSpillLongest is the longest seenTable spill carved, 16 KB: every
// relay's summary dedup grows through the same doublings as it relays
// more origins' send times, at its own pace, so an outgrown spill is
// soon another relay's (DESIGN.md §12).
const seenSpillLongest = 2 << 10

// sharedOf returns the shared value of api's network.
func sharedOf(api *netsim.NodeAPI) *shared {
	s := netsim.Shared[shared](api)
	s.seen.spill.Longest = seenSpillLongest
	return s
}

// carve returns a zero T carved from b for a holder that keeps it: the
// basestation's copies of the summaries it keeps, its query packets and
// its query records, which nothing puts back.
func carve[T any](b *netsim.Blocks[T]) *T { return &b.Take(1)[:1][0] }
