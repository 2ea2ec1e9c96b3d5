package router

import (
	"fmt"
	"math/bits"
	"sync"
)

// Deterministic sharded stepping, the fabric's one stepping path.
//
// The node array is split into fixed contiguous shards, aligned to
// 64-node boundaries so two shards never share an active-bitset word,
// nor a word of the popped-lane bitset; Workers 0 or 1, or a network
// smaller than two spans, makes one shard covering every node. Each
// per-cycle stage runs as one or more rounds over the shards. A cycle
// is either inline — every round runs on the coordinator, shard after
// shard, with no workers and no barriers — or concurrent, with the
// shards' rounds on the worker pool and a barrier between rounds. Both
// are byte-identical; inline shard order is node order. The discipline
// that keeps concurrent rounds byte-identical to inline ones:
//
//   - Within a round, a shard writes nothing another shard reads in the
//     same round: only state owned by its own nodes (buffers, latches,
//     masks, round-robin pointers, popped bits), its private scratch
//     (counter deltas, handoff mailboxes, move/suspect lists) and its
//     own progress table (slots.go). The one shared structure written
//     concurrently is the active bitsets' summary level, by atomic
//     Or/And of distinct bits, read only between rounds (buffer.go).
//   - Cross-node effects are staged, never applied in place: link
//     traversals into another node go through per-(source, destination)
//     shard mailboxes and are applied by the destination shard in source
//     node-index order; deliveries, suspects and counter deltas are
//     folded by the coordinator in shard order, which is node-index
//     order.
//   - The one stage whose semantics are order-dependent — the crossbar,
//     where a pop at node i frees a downstream credit a later node j can
//     observe in the same cycle — runs in three rounds on a concurrent
//     cycle: a parallel scan against the cycle-start snapshot that
//     commits every port whose outcome cannot depend on same-cycle pops,
//     a referee on the coordinator in node-index order that
//     re-arbitrates only the ports blocked on a full buffer at an
//     earlier node (the only pops node order makes visible), and a
//     parallel apply of the committed moves, each at its owning shard.
//     An inline scan applies each move in place instead: it visits
//     nodes in order, so live credit is exact and nothing is left for
//     the referee.
//
// Scheduling therefore cannot influence results: every cross-shard
// interaction is either commutative (summary bits, counter deltas) or
// serialized in node-index order. Workers park on channels between
// rounds (no spinning), so a single-CPU host degrades gracefully.
//
// Per-cycle cost tracks the active population, not the network size:
//
//   - Every round is dispatched through a per-shard mask (shardActive)
//     derived from the activeWords summary bitsets or the per-shard
//     scratch lists; a shard with no relevant work is never visited.
//   - The own-nodes-only rounds are fused. Link traversals that stay
//     inside the source shard are pushed directly during phLinkLocal
//     (each buffer has exactly one upstream latch, so it receives at
//     most one handoff per cycle and the push order cannot matter);
//     the merge round only runs when a handoff actually crossed a shard
//     boundary. On concurrent Recovery-mode cycles routing and
//     injection share one phRouteInject round (routing never changes a
//     packet's mode there); inline cycles keep them apart so trace
//     events stay in stage order. Detection follows in its own phDetect
//     round, reading the progress tables after the barrier. Avoidance
//     mode keeps phRoute and phInject separate: routeHeader may demote a
//     packet to the escape lane (a mode write to its slot record) while
//     another shard's injection reads the mode of the same packet.
//   - The coordinator picks inline vs concurrent execution per cycle
//     from the active-lane count with hysteresis (Config.Dispatch); the
//     decision is scheduling-only.

// phaseID names one parallel round.
type phaseID uint8

const (
	phLinkLocal   phaseID = iota // clear own latches; push same-shard, stage cross-shard
	phLinkMerge                  // push cross-shard handoffs into own nodes
	phXbarScan                   // switch allocation against the snapshot; commit the unambiguous ports
	phXbarApply                  // pop/latch the committed moves
	phRoute                      // central arbiter, own nodes only (Avoidance)
	phInject                     // injection streaming, own nodes only (Avoidance)
	phRouteInject                // fused route+inject, own nodes only (Recovery)
	phDetect                     // deadlock-timeout scan, own nodes only (Recovery)
	phExit                       // shut the worker down
)

// handoff is one link traversal crossing into another shard's node: the
// flit (arrival already stamped) and its destination buffer.
type handoff struct {
	tb *vcBuffer
	fl flit
}

// xbCand is a physical output port the scan left to the referee: a lane
// ahead of any snapshot winner is blocked on a full buffer at an
// earlier node, which a same-cycle pop there could free before this
// port's turn in node order.
type xbCand struct {
	ni int32
	p  int16
}

// xbMove is a committed crossbar move, applied by the owning shard.
type xbMove struct {
	o  *outVC
	ni int32
	p  int16
	vi int16
}

// shard is one worker's node range plus all its private scratch. Scratch
// slices keep their capacity across cycles, so sharded stepping does not
// allocate in steady state.
type shard struct {
	lo, hi int

	ctx   stepCtx     // counter sink (the delta below), progress table, route scratch
	delta netCounters // folded into the fabric's sums between rounds

	hand           [][]handoff // hand[dstShard]: staged link handoffs
	delivered      []int32     // slots of tails consumed at delivery, node order
	deliveredFlits int64

	cands    []xbCand // ports left to the crossbar referee, node order
	moves    []xbMove // committed crossbar moves for this shard's nodes
	suspects []suspect
}

// workerPool is the persistent worker set: one goroutine per shard
// beyond shard 0 (the coordinator steps shard 0 in place). Workers block
// on their phase channel between rounds.
type workerPool struct {
	phase []chan phaseID
	wg    sync.WaitGroup
}

// initShards fixes the node partition at construction time. The span is
// rounded up to a multiple of 64 nodes so no two shards touch the same
// active-bitset word; with one worker, or a network smaller than two
// spans, the single shard's span is the node count rounded up to 64.
//
// All per-shard scratch is pre-sized to its structural per-cycle bound
// here, so stepping never grows a slice mid-run: a high-water mark that
// creeps up logarithmically under random traffic otherwise shows up as
// a few bytes/op that no warmup length can amortize away (a 7 B/op
// residue once measured on the sharded 4096-node torus at low load, now
// gated by TestFabricStepZeroSteadyStateAllocs).
func (f *Fabric) initShards() {
	nodes := len(f.nodes)
	w := min(max(f.cfg.Workers, 1), nodes)
	span := (nodes + w - 1) / w
	span = (span + 63) &^ 63
	ns := (nodes + span - 1) / span
	f.shardSpan = span
	f.shards = make([]shard, ns)
	phys := f.topo.PhysPorts()
	dlv := f.cfg.DeliveryChannels
	if dlv == 0 {
		dlv = 1
	}
	f.dstShard = make([]int16, len(f.dstGid))
	for i, g := range f.dstGid {
		if g < 0 {
			f.dstShard[i] = -1
		} else {
			f.dstShard[i] = int16(int(g) / f.lanesIn / span)
		}
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.lo = i * span
		sh.hi = min((i+1)*span, nodes)
		sh.ctx = stepCtx{nc: &sh.delta, shard: i}
		n := sh.hi - sh.lo
		// Crossbar: at most one referee port per physical port, and one
		// move per physical port plus one per delivery channel, per node.
		sh.cands = make([]xbCand, 0, n*phys)
		sh.moves = make([]xbMove, 0, n*(phys+dlv))
		// Link stage: at most one tail per delivery channel per cycle.
		sh.delivered = make([]int32, 0, n*dlv)
		sh.suspects = make([]suspect, 0, n)
		// Mailboxes sized to the boundary-crossing lane count per
		// destination shard: with same-shard traversals pushed directly,
		// only lanes whose downstream neighbor lives in another shard
		// ever stage a handoff, at most one per output lane per cycle.
		cross := make([]int, ns)
		for ni := sh.lo; ni < sh.hi; ni++ {
			base := ni * f.lanesOut
			for p := 0; p < phys; p++ {
				if d := f.dstShard[base+p*f.cfg.VCs]; int(d) != i {
					cross[d] += f.cfg.VCs
				}
			}
		}
		sh.hand = make([][]handoff, ns)
		for d, c := range cross {
			if c > 0 {
				sh.hand[d] = make([]handoff, 0, c)
			}
		}
	}
	f.shardActive = make([]bool, ns)
	f.popped = make([]uint64, (len(f.bufs)+63)>>6)
	f.adaptHi = 64 * ns
	f.adaptLo = f.adaptHi / 2
}

// dispatchSharded is the per-cycle scheduling decision for a fabric
// with several shards: whether the coming cycle runs its rounds
// concurrently or inline. Both produce byte-identical results, so this
// is pure scheduling. The adaptive policy flips to concurrent once the
// active lane population crosses adaptHi and back to inline below
// adaptLo — hysteresis keeps a load hovering near one threshold from
// thrashing — and never goes concurrent on a single-CPU host, where
// barrier rounds are pure coordination overhead.
//
//stcc:hotpath
func (f *Fabric) dispatchSharded() bool {
	switch f.cfg.Dispatch {
	case DispatchSharded:
		return true
	case DispatchSerial:
		return false
	}
	if f.maxProcs <= 1 {
		return false
	}
	active := f.net.latched + f.net.ownedOuts + f.net.pendingIns + f.net.srcActive
	if f.cfg.Mode == Recovery {
		active += f.net.occupiedIns
	}
	if f.useSharded {
		if active < f.adaptLo {
			f.useSharded = false
		}
	} else if active >= f.adaptHi {
		f.useSharded = true
	}
	return f.useSharded
}

// startWorkers launches the persistent pool (lazily, on the first
// concurrent cycle, so fabrics that never run one cost no goroutines).
func (f *Fabric) startWorkers() {
	wp := &workerPool{phase: make([]chan phaseID, len(f.shards)-1)}
	for i := range wp.phase {
		ch := make(chan phaseID, 1)
		wp.phase[i] = ch
		go f.workerLoop(i+1, ch, wp)
	}
	f.workers = wp
}

func (f *Fabric) workerLoop(si int, ch chan phaseID, wp *workerPool) {
	for ph := range ch {
		if ph == phExit {
			wp.wg.Done()
			return
		}
		f.runShardPhase(ph, si)
		wp.wg.Done()
	}
}

// Close stops the worker pool, if one is running. Blocked goroutines are
// never garbage collected, so holders of many fabrics (sweep runners,
// benchmark loops) must Close each one; the sim engine does it when a
// run completes. A closed fabric restarts its workers on the next Step.
func (f *Fabric) Close() {
	wp := f.workers
	if wp == nil {
		return
	}
	wp.wg.Add(len(wp.phase))
	for _, ch := range wp.phase {
		ch <- phExit
	}
	wp.wg.Wait()
	f.workers = nil
}

// markActive derives the round dispatch mask from one active bitset's
// summary level: a shard participates iff any of its nodes is active.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) markActive(aw *activeWords) {
	for si := range f.shards {
		sh := &f.shards[si]
		f.shardActive[si] = aw.anyIn(sh.lo, sh.hi)
	}
}

// markActiveUnion is markActive over the two bitsets the fused
// route/inject round walks.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) markActiveUnion(a, b *activeWords) {
	for si := range f.shards {
		sh := &f.shards[si]
		f.shardActive[si] = a.anyIn(sh.lo, sh.hi) || b.anyIn(sh.lo, sh.hi)
	}
}

// markMailboxes masks the merge round: shard d participates iff some
// mailbox hand[s][d] is non-empty. Returns false when no handoff
// crossed a shard boundary this cycle — with same-shard traversals
// pushed directly during phLinkLocal, an entirely skippable round is
// the common case.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) markMailboxes() bool {
	any := false
	for d := range f.shards {
		act := false
		for s := range f.shards {
			if len(f.shards[s].hand[d]) > 0 {
				act = true
				break
			}
		}
		f.shardActive[d] = act
		any = any || act
	}
	return any
}

// markMoves masks the crossbar apply round on the committed move lists.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) markMoves() {
	for si := range f.shards {
		f.shardActive[si] = len(f.shards[si].moves) > 0
	}
}

// runPhaseMasked executes one round on the shards marked active: on an
// inline cycle one after another on the coordinator, otherwise on the
// workers, waiting for the barrier. Idle shards are skipped: their
// relevant bitset words (or scratch lists) are empty, so the round
// would visit nothing.
//
//stcc:hotpath
func (f *Fabric) runPhaseMasked(ph phaseID) {
	if f.inline {
		for si := range f.shards {
			if f.shardActive[si] {
				f.runShardPhase(ph, si)
			}
		}
		return
	}
	wp := f.workers
	n := 0
	for si := 1; si < len(f.shards); si++ {
		if f.shardActive[si] {
			n++
		}
	}
	if n > 0 {
		wp.wg.Add(n)
		for si := 1; si < len(f.shards); si++ {
			if f.shardActive[si] {
				wp.phase[si-1] <- ph
			}
		}
	}
	if f.shardActive[0] {
		f.runShardPhase(ph, 0)
	}
	if n > 0 {
		wp.wg.Wait()
	}
}

//stcc:hotpath
func (f *Fabric) runShardPhase(ph phaseID, si int) {
	sh := &f.shards[si]
	switch ph {
	case phLinkLocal:
		f.linkLocalShard(sh, si)
	case phLinkMerge:
		f.linkMergeShard(si)
	case phXbarScan:
		f.xbarScanShard(sh)
	case phXbarApply:
		f.xbarApplyShard(sh)
	case phRoute:
		f.routeShard(sh)
	case phInject:
		f.injectShard(sh)
	case phRouteInject:
		f.routeShard(sh)
		f.injectShard(sh)
	case phDetect:
		f.detectShard(sh)
	}
}

// foldDeltas folds every shard's counter delta into the fabric-wide
// sums (shard order, though the sums are commutative anyway).
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) foldDeltas() {
	for si := range f.shards {
		d := &f.shards[si].delta
		f.net.add(d)
		*d = netCounters{}
	}
}

// shardWords bounds the active-bitset words of shard sh: [lo, hi).
//
//stcc:hotpath
func (sh *shard) shardWords() (int, int) { return sh.lo >> 6, (sh.hi + 63) >> 6 }

// linkLocalShard drains the shard's own latches: delivery lanes consume
// here (the delivered tails queue for the coordinator), physical lanes
// whose downstream buffer lives in this shard push directly (a buffer
// has exactly one upstream latch, so it sees at most one push per cycle
// and the push order cannot matter), and only boundary-crossing lanes
// stage a handoff in the destination shard's mailbox.
//
//stcc:shardstage
//stcc:hotpath
func (f *Fabric) linkLocalShard(sh *shard, si int) {
	now := f.now
	lo, hi := sh.shardWords()
	words := f.actLatched.actWords
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			base := ni * f.lanesOut
			for lm := f.latchMask[ni]; lm != 0; lm &= lm - 1 {
				lane := bits.TrailingZeros64(lm)
				o := &f.outsA[base+lane]
				if f.frozen(o.lat.f.slot) {
					continue
				}
				fl := o.lat.clear(sh.ctx.nc)
				f.stamp(&sh.ctx, fl.slot, now)
				if int(o.lat.port) == f.dlvPort {
					sh.deliveredFlits++
					//stcc:shardguard a packet is consumed only at its destination's delivery lanes, so one shard counts it this round
					f.slotPkt[fl.slot].Consumed++
					if f.isTail(fl) {
						o.release(sh.ctx.nc)
						sh.delivered = append(sh.delivered, fl.slot)
					}
					continue
				}
				tb := &f.bufs[f.dstGid[base+lane]]
				if ds := int(f.dstShard[base+lane]); ds != si {
					sh.hand[ds] = append(sh.hand[ds], handoff{tb: tb, fl: fl})
				} else {
					if tb.full() {
						panic(fmt.Sprintf("router: link overflow into %v at cycle %d", tb, now))
					}
					tb.push(fl, sh.ctx.nc)
				}
				if f.isTail(fl) {
					o.release(sh.ctx.nc)
				}
			}
		}
	}
}

// linkMergeShard pushes every handoff addressed to shard d into its
// destination buffer, visiting source shards in index order. Each
// buffer has exactly one upstream latch, so it receives at most one
// handoff per cycle.
//
//stcc:shardstage
//stcc:hotpath
func (f *Fabric) linkMergeShard(d int) {
	//stcc:shardguard worker d owns shard d this round; the merge direction inverts the usual ownership
	sh := &f.shards[d]
	for s := range f.shards {
		hs := f.shards[s].hand[d]
		for i := range hs {
			h := &hs[i]
			if h.tb.full() {
				panic(fmt.Sprintf("router: link overflow into %v at cycle %d", h.tb, f.now))
			}
			h.tb.push(h.fl, sh.ctx.nc)
			hs[i] = handoff{}
		}
		//stcc:shardguard resetting mailbox s->d: only worker d reads or truncates it during this round
		f.shards[s].hand[d] = hs[:0]
	}
}

// mergeLink folds the link rounds' deltas and finalizes deliveries in
// shard (= node) order, so callbacks and stats see node order.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) mergeLink() {
	now := f.now
	f.foldDeltas()
	for si := range f.shards {
		sh := &f.shards[si]
		f.deliveredFlits += sh.deliveredFlits
		f.deliveredWindow += sh.deliveredFlits
		sh.deliveredFlits = 0
		for _, s := range sh.delivered {
			f.deliver(s, now)
		}
		sh.delivered = sh.delivered[:0]
	}
}

// xbarScanShard runs switch allocation for the shard's own nodes in node
// order: on a concurrent cycle against the cycle-start snapshot,
// committing every port whose outcome is already final and queueing the
// rest for the referee; on an inline cycle against live state, applying
// each winning move in place.
//
//stcc:shardstage
//stcc:hotpath
func (f *Fabric) xbarScanShard(sh *shard) {
	lo, hi := sh.shardWords()
	words := f.actOwned.actWords
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			cm := f.ownedMask[ni] &^ f.latchMask[ni]
			for cm != 0 {
				lane := bits.TrailingZeros64(cm)
				p := int(f.laneOutPort[lane])
				base, nvc := f.outPortBase[p], f.outPortWidth[p]
				cm &^= ((uint64(1) << uint(nvc)) - 1) << uint(base)
				f.xbarScanPort(ni, p, base, nvc, sh)
			}
		}
	}
}

// xbarScanPort arbitrates one output port: round-robin from swPtr over
// the port's output VCs, the first candidate with a buffered flit and a
// downstream credit wins. One flit per physical port per cycle; each
// delivery (consumption) channel drains independently.
//
// An inline scan visits ports in node order and pops in place, so the
// credit it reads is exactly what earlier nodes left. A concurrent scan
// reads the snapshot instead. Frozen and empty lanes are stable for the
// whole stage, and credit only grows as pops free it, so the snapshot's
// winner wins in node order too — unless a lane ahead of it is blocked
// on a full downstream buffer that a pop at an earlier node could free.
// A port's lanes all feed one downstream node, so that can happen only
// when the downstream node precedes ni; such a port goes to the referee
// and everything else commits here.
//
//stcc:hotpath
func (f *Fabric) xbarScanPort(ni, p, base, nvc int, sh *shard) {
	pm := (f.ownedMask[ni] &^ f.latchMask[ni]) >> uint(base)
	outs := f.outsA[ni*f.lanesOut+base : ni*f.lanesOut+base+nvc]
	start := f.nodes[ni].swPtr[p]
	dlv := p == f.dlvPort
	inline := f.inline
	for i := 0; i < nvc; i++ {
		vi := start + i
		if vi >= nvc {
			vi -= nvc
		}
		if pm&(uint64(1)<<uint(vi)) == 0 {
			continue
		}
		o := &outs[vi]
		if f.frozen(o.ownerSlot) {
			continue
		}
		if f.occ[o.ownerGid] == 0 {
			continue // worm stretched thin; occupancy is stable this stage
		}
		if !dlv {
			tg := f.dstGid[ni*f.lanesOut+base+vi]
			if f.occ[tg] == f.depth {
				if !inline && f.precedes(tg, ni) {
					// A same-cycle pop at the earlier node could free this.
					sh.cands = append(sh.cands, xbCand{ni: int32(ni), p: int16(p)})
					return
				}
				continue // no credit by this port's turn
			}
		}
		if inline {
			//stcc:shardguard inline cycles run every round on the coordinator, so no other shard reads this buffer's occupancy while the scan pops it; a concurrent scan must commit the move instead
			f.applyMove(&sh.ctx, o, ni, p, vi)
		} else {
			f.commitMove(sh, o, ni, p, vi)
		}
		if !dlv {
			return // one flit per physical port per cycle
		}
	}
}

// precedes reports whether input lane g belongs to a node before ni in
// node order, the crossbar's visiting order.
//
//stcc:hotpath
func (f *Fabric) precedes(g int32, ni int) bool { return int(g) < ni*f.lanesIn }

// commitMove marks the winner's buffer popped and queues the move for
// its owning shard's apply round. The buffer is at node ni, and spans
// are 64-node aligned, so its popped word belongs to ni's shard alone:
// the scan round sets bits only in its own words.
//
//stcc:hotpath
func (f *Fabric) commitMove(sh *shard, o *outVC, ni, p, vi int) {
	g := o.ownerGid
	//stcc:shardguard the owner buffer is at this shard's node, and shard spans are 64-node aligned, so the popped word is this shard's own
	f.popped[g>>6] |= 1 << uint(g&63)
	sh.moves = append(sh.moves, xbMove{o: o, ni: int32(ni), p: int16(p), vi: int16(vi)})
}

// refereeXbar is the coordinator's round on a concurrent cycle: it
// re-arbitrates the ports the scan left open in node-index order,
// against live credit — the snapshot occupancy minus the pops committed
// at earlier nodes, exactly the state an inline scan sees at that
// node's turn.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) refereeXbar() {
	for si := range f.shards {
		sh := &f.shards[si]
		for _, c := range sh.cands {
			f.refereePort(sh, int(c.ni), int(c.p))
		}
		sh.cands = sh.cands[:0]
	}
}

// refereePort re-runs one physical port's round-robin scan with live
// credit visibility. A popped downstream buffer counts only when its
// node precedes ni: pops at later nodes (committed by their own scan)
// happen after this port's turn in node order. The scan sends only
// ports whose downstream node precedes ni, so the test holds for every
// port it is given; it keeps the rule correct on its own.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) refereePort(sh *shard, ni, p int) {
	base, nvc := f.outPortBase[p], f.outPortWidth[p]
	pm := (f.ownedMask[ni] &^ f.latchMask[ni]) >> uint(base)
	outs := f.outsA[ni*f.lanesOut+base : ni*f.lanesOut+base+nvc]
	start := f.nodes[ni].swPtr[p]
	for i := 0; i < nvc; i++ {
		vi := start + i
		if vi >= nvc {
			vi -= nvc
		}
		if pm&(uint64(1)<<uint(vi)) == 0 {
			continue
		}
		o := &outs[vi]
		if f.frozen(o.ownerSlot) {
			continue
		}
		if f.occ[o.ownerGid] == 0 {
			continue
		}
		tg := f.dstGid[ni*f.lanesOut+base+vi]
		n := f.occ[tg]
		if f.precedes(tg, ni) && f.popped[tg>>6]&(1<<uint(tg&63)) != 0 {
			n-- // a pop committed at an earlier node freed one credit
		}
		if n == f.depth {
			continue
		}
		f.commitMove(sh, o, ni, p, vi)
		return
	}
}

// xbarApplyShard applies the shard's committed moves and clears each
// move's popped bit, leaving the bitset zero for the next cycle.
//
//stcc:shardstage
//stcc:hotpath
func (f *Fabric) xbarApplyShard(sh *shard) {
	for i := range sh.moves {
		mv := &sh.moves[i]
		g := mv.o.ownerGid
		//stcc:shardguard the owner buffer is at this shard's node; its popped word is this shard's own (64-node aligned spans)
		f.popped[g>>6] &^= 1 << uint(g&63)
		f.applyMove(&sh.ctx, mv.o, int(mv.ni), int(mv.p), int(mv.vi))
		sh.moves[i] = xbMove{}
	}
	sh.moves = sh.moves[:0]
}

// applyMove moves the front flit of o's owner buffer through the
// crossbar into o's latch (output lane vi of port p at node ni): pop,
// progress, latch, and the round-robin pointer update — all state owned
// by ni's shard.
//
//stcc:hotpath
func (f *Fabric) applyMove(ctx *stepCtx, o *outVC, ni, p, vi int) {
	b := &f.bufs[o.ownerGid]
	fl := b.pop(ctx.nc)
	if fl.slot != o.ownerSlot {
		panic(fmt.Sprintf("router: %v front flit of slot %d, owner slot %d", b, fl.slot, o.ownerSlot))
	}
	f.stamp(ctx, fl.slot, f.now)
	if f.isTail(fl) {
		b.clearBinding(ctx.nc)
	}
	o.lat.set(fl, ctx.nc)
	if p != f.dlvPort {
		nd := &f.nodes[ni]
		if nd.swPtr[p] = vi + 1; nd.swPtr[p] == f.outPortWidth[p] {
			nd.swPtr[p] = 0
		}
	}
}

// routeShard runs the central arbiter for the shard's own nodes. Route
// computation reads remote occupancy (cut-through credit), which is
// stable during this round; all writes are own-node.
//
//stcc:shardstage
//stcc:hotpath
func (f *Fabric) routeShard(sh *shard) {
	lo, hi := sh.shardWords()
	words := f.actPending.actWords
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			f.arbitrate(&f.nodes[ni], &sh.ctx)
		}
	}
}

// injectShard streams injection flits for the shard's own sources.
//
//stcc:shardstage
//stcc:hotpath
func (f *Fabric) injectShard(sh *shard) {
	lo, hi := sh.shardWords()
	words := f.actSrc.actWords
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			f.injectNode(ni, &sh.ctx)
		}
	}
}

// detectShard scans the shard's own nodes for deadlock timeouts, in its
// own round after routing and injection, so it reads every progress
// stamp of the cycle. Fresh suspects collect per shard and are
// concatenated — and only then frozen — in shard order, which is node
// order. Deferring the mode write to the coordinator changes nothing: a
// packet's head flit fronts exactly one lane network-wide, so no other
// detect decision this cycle could have observed the earlier write.
//
//stcc:shardstage
//stcc:hotpath
func (f *Fabric) detectShard(sh *shard) {
	lo, hi := sh.shardWords()
	words := f.actOccupied.actWords
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			f.detectNode(ni, &sh.suspects)
		}
	}
}

// mergeSuspects freezes the shards' fresh suspects and concatenates
// them onto the token queue in shard (= node) order, then clears the
// per-shard lists.
//
//stcc:serialonly
//stcc:hotpath
func (f *Fabric) mergeSuspects() {
	for si := range f.shards {
		sh := &f.shards[si]
		f.freezeSuspects(sh.suspects)
		f.suspects = append(f.suspects, sh.suspects...)
		for i := range sh.suspects {
			sh.suspects[i] = suspect{}
		}
		sh.suspects = sh.suspects[:0]
	}
}
