// Package memsys defines the message types and address geometry shared by
// every subsystem of the multi-chip GPU simulator: memory requests and
// responses, access kinds, and the line/page arithmetic helpers.
//
// All components exchange *Request values. A request is created by an SM on
// an L1 miss (or a write-through store), travels through the intra-chip NoC,
// optionally the inter-chip ring, an LLC slice and a DRAM channel, and
// finally returns to the issuing SM as a response. The same struct carries
// the message through all stages; the Stage field records where it currently
// is and bookkeeping fields record where it has been, so that the statistics
// modules can attribute every byte of delivered bandwidth to its origin.
package memsys

import "fmt"

// AccessKind distinguishes the operations an SM can issue.
type AccessKind uint8

const (
	// Read is a load; the issuing warp blocks until the response arrives.
	Read AccessKind = iota
	// Write is a write-through store; it consumes bandwidth but does not
	// block the warp (the L1 is write-through, no-write-allocate).
	Write
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Message sizes in bytes, following the paper's NoC accounting: control
// messages (read requests, write acks, invalidations) carry a header only;
// data messages carry a full cache line plus header.
const (
	// CtrlBytes is the size of a header-only message.
	CtrlBytes = 32
	// DataBytesHeader is the header overhead of a data-carrying message;
	// the total is DataBytesHeader + line size.
	DataBytesHeader = 32
)

// Origin identifies where a response was served from. It is the key axis of
// Figure 10 (effective LLC bandwidth breakdown).
type Origin uint8

const (
	// OriginNone marks a request that has not been served yet.
	OriginNone Origin = iota
	// OriginLocalLLC — hit in an LLC slice on the issuing chip.
	OriginLocalLLC
	// OriginRemoteLLC — hit in an LLC slice on another chip.
	OriginRemoteLLC
	// OriginLocalMem — served by the issuing chip's memory partition.
	OriginLocalMem
	// OriginRemoteMem — served by another chip's memory partition.
	OriginRemoteMem
)

func (o Origin) String() string {
	switch o {
	case OriginNone:
		return "none"
	case OriginLocalLLC:
		return "localLLC"
	case OriginRemoteLLC:
		return "remoteLLC"
	case OriginLocalMem:
		return "localMem"
	case OriginRemoteMem:
		return "remoteMem"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// Stage records the position of a request in the memory system. The gpu
// package's cycle loop advances requests between stages; each stage is
// backed by a bandwidth-gated queue in the owning component.
type Stage uint8

const (
	// StageNew — created by an SM, not yet injected.
	StageNew Stage = iota
	// StageNoCReq — traversing a chip's request crossbar.
	StageNoCReq
	// StageRingReq — traversing the inter-chip ring toward the serving chip.
	StageRingReq
	// StageLLC — queued at an LLC slice for lookup.
	StageLLC
	// StageDRAM — queued at a DRAM channel.
	StageDRAM
	// StageRingResp — response traversing the ring back.
	StageRingResp
	// StageNoCResp — response traversing the requester chip's response crossbar.
	StageNoCResp
	// StageDone — delivered to the SM.
	StageDone
)

// Geometry captures the address-space constants every component shares.
type Geometry struct {
	LineBytes int // cache line size (128 in the paper)
	PageBytes int // memory page size (4096 in the paper)
	Sectors   int // sectors per line for sectored caches (4 in the paper)
}

// LinesPerPage returns the number of cache lines in a page.
func (g Geometry) LinesPerPage() int { return g.PageBytes / g.LineBytes }

// Line returns the line index of a byte address.
func (g Geometry) Line(addr uint64) uint64 { return addr / uint64(g.LineBytes) }

// Page returns the page index of a byte address.
func (g Geometry) Page(addr uint64) uint64 { return addr / uint64(g.PageBytes) }

// PageOfLine returns the page index containing a line index.
func (g Geometry) PageOfLine(line uint64) uint64 {
	return line * uint64(g.LineBytes) / uint64(g.PageBytes)
}

// SectorOfAddr returns the sector index (0..Sectors-1) of a byte address
// within its line.
func (g Geometry) SectorOfAddr(addr uint64) int {
	if g.Sectors <= 1 {
		return 0
	}
	sectorBytes := g.LineBytes / g.Sectors
	return int(addr%uint64(g.LineBytes)) / sectorBytes
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	if g.LineBytes <= 0 || g.PageBytes <= 0 {
		return fmt.Errorf("memsys: non-positive geometry %+v", g)
	}
	if g.PageBytes%g.LineBytes != 0 {
		return fmt.Errorf("memsys: page size %d not a multiple of line size %d", g.PageBytes, g.LineBytes)
	}
	if g.Sectors < 1 || g.LineBytes%max(g.Sectors, 1) != 0 {
		return fmt.Errorf("memsys: invalid sector count %d for line size %d", g.Sectors, g.LineBytes)
	}
	return nil
}

// Request is a memory-system message. One allocation carries the transaction
// through its whole life; components mutate the routing fields in place.
// Word-sized fields come first and the byte-sized ones share the tail, so
// the record has no interior padding (make fieldalign).
type Request struct {
	// Address identity.
	Line   uint64 // line index
	Sector int    // sector within the line (sectored caches)

	// Issuer.
	SrcChip int // chip of the issuing SM
	SrcSM   int // SM index within the chip

	// Placement, filled by the address mapper when the request is created.
	HomeChip int // chip owning the memory partition of the page
	Slice    int // LLC slice index within the serving chip
	Channel  int // DRAM channel index within the home chip

	ServeChip  int   // chip whose LLC slice serves the request under the active org
	IssueCycle int64 // cycle the SM injected the request

	Kind AccessKind

	// Routing state.
	Stage  Stage
	Bypass bool  // true when the request must bypass the LLC slice (SM-side remote miss at the home chip)
	Phase  uint8 // organization-specific progress marker (hybrid: 0 = first lookup, 1 = home lookup)
	WB     bool  // dirty-eviction writeback: consumes bandwidth, no response
	Inval  bool  // hardware-coherence invalidation control message

	// Outcome bookkeeping.
	Origin Origin
	LLCHit bool // set when the serving LLC slice hit

	// pooled marks a request currently held by a Pool freelist; it guards
	// against retiring the same request twice while a stale reference is
	// still in some queue.
	pooled bool
}

// Pool recycles Request objects across a simulation's cycle loop, so steady
// state allocates no new requests. It is not safe for concurrent use: each
// simulated system owns one Pool, matching the one-goroutine-per-simulation
// execution model.
//
// A request must be retired (Put) exactly once, at the point the last
// component drops its reference: response delivery for reads, ack/absorb
// points for writes, writebacks and invalidations.
type Pool struct {
	free []*Request

	// Allocs counts fresh heap allocations; Reuses counts recycled
	// requests (diagnostics and tests).
	Allocs int64
	Reuses int64
}

// Get returns a zeroed request, recycling a retired one when available.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*r = Request{}
		p.Reuses++
		return r
	}
	p.Allocs++
	return &Request{}
}

// Put retires a request. The caller must hold the last live reference;
// retiring twice panics rather than corrupting the freelist.
func (p *Pool) Put(r *Request) {
	if r.pooled {
		panic("memsys: request retired twice")
	}
	r.pooled = true
	p.free = append(p.free, r)
}

// Free returns how many retired requests the pool holds. With nothing in
// flight it equals Allocs: every request ever allocated has been retired
// exactly once.
func (p *Pool) Free() int { return len(p.free) }

// IsLocal reports whether the request targets the issuing chip's own memory
// partition (R_local in the EAB model).
func (r *Request) IsLocal() bool { return r.SrcChip == r.HomeChip }

// ReqBytes returns the request-network cost of the message in bytes.
func (r *Request) ReqBytes(lineBytes int) int {
	if r.Kind == Write {
		return DataBytesHeader + lineBytes // stores carry data toward the LLC
	}
	return CtrlBytes
}

// RespBytes returns the response-network cost of the message in bytes.
func (r *Request) RespBytes(lineBytes int) int {
	if r.Kind == Write {
		return CtrlBytes // write ack
	}
	return DataBytesHeader + lineBytes
}
