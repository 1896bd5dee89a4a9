package netsim

import "scoop/internal/metrics"

// NodeID identifies a node. The basestation is always node 0, matching
// the paper's single-basestation deployments.
type NodeID uint16

// Broadcast is the link-layer broadcast address.
const Broadcast NodeID = 0xFFFF

// NoNode marks an unset NodeID field (e.g. "no parent yet").
const NoNode NodeID = 0xFFFE

// MaxNodes is the largest supported network size. The paper's
// implementation bounds networks to 128 nodes via the fixed 128-bit
// query bitmap (paper §5.5); the scale tier (DESIGN.md §12) replaces
// that field with a variable-length bitmap sized to the network — its
// on-air size keeps the paper's 16-byte floor, so runs at or below
// 128 nodes are bit-for-bit unchanged — and raises the simulator
// bound to 1024 so GHT/TAG-regime experiments (hundreds to a
// thousand nodes) are runnable.
const MaxNodes = 1024

// Packet is a link-layer frame. Protocol layers attach their content
// as Payload; Size approximates the on-air byte count so the MAC can
// model airtime and collisions.
//
// Every outgoing packet carries Scoop's custom header fields: Origin
// (the node that created the packet) and OriginParent (that node's
// routing-tree parent), which the basestation uses to learn the tree
// (paper §5.2), plus a per-sender monotonically increasing sequence
// number that neighbours use to estimate link quality by counting gaps
// (paper §5.2, "snooping").
//
// Ownership: the *Packet passed to App.Receive and App.Snoop is owned
// by the simulator and recycled through a pool once the delivery
// callback returns. Applications must not retain or mutate it; copy
// the struct (payloads are immutable by convention and may be kept).
// Send/Broadcast copy the frame, so the caller's *Packet is free again at
// once; what OnPurge and ForEachQueued/InFlight hand out lasts one call.
type Packet struct {
	Class metrics.Class // message class for accounting
	Src   NodeID        // link-layer sender of this transmission
	Dst   NodeID        // link-layer destination, or Broadcast

	Origin       NodeID // node that created the packet
	OriginParent NodeID // Origin's routing-tree parent at creation time
	Seq          uint32 // Src's link-layer sequence number (set by the MAC)

	Size    int // approximate bytes on air, including headers
	Payload any
}
