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
	hops     netsim.FreeList[dataHop]
	replies  netsim.FreeList[ReplyMsg]
	mappings netsim.FreeList[MappingMsg]

	seen     seenBlocks
	readings netsim.Blocks[Reading]   // batches, regroup buffers, flash rings
	batches  netsim.Blocks[[]Reading] // batchq values and spare batches
	queries  netsim.Blocks[*QueryMsg] // query tables and pending answers
	values   netsim.Blocks[int]       // summaries' copy of the recent readings
	gens     index.Generations
}

// seenBlocks is where dedup tables and the batch queue grow: row keys,
// dedup rows and their older keys.
type seenBlocks struct {
	ids  netsim.Blocks[netsim.NodeID]
	rows netsim.Blocks[seenRow]
	keys netsim.Blocks[uint64]
}

// extend returns s lengthened with zero values to hold index i, its
// array taken from b when it must grow — at least first long and twice
// its old capacity, the old one put back — so a dense table indexed by
// query ID takes a few arrays in a run.
func extend[T any](b *netsim.Blocks[T], s []T, i, first int) []T {
	if i < len(s) {
		return s
	}
	if i >= cap(s) {
		t := append(b.Take(max(first, 2*cap(s), i+1)), s...)
		b.Put(s)
		s = t
	}
	k := len(s)
	s = s[:i+1]
	clear(s[k:])
	return s
}
