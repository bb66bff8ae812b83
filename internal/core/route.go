package core

import (
	"github.com/nuba-gpu/nuba/internal/addrmap"
	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/noc"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// This file wires SMs, LLC slices, the NoC and the memory controllers
// together for each architecture and implements the per-cycle message
// movement between them.

// smPort returns an SM's port index within its module's fabrics
// (request-fabric input, reply-fabric output for the UBA layouts).
func (g *GPU) smPort(sm int) int { return sm % g.smsPerModule() }

// slicePort returns a slice's port index within its module's fabrics.
func (g *GPU) slicePort(slice int) int { return slice % g.slicesPerModule() }

// partitionSlice picks the slice of a partition that passes through /
// replicates a given line (the least significant randomized bank bits, as
// in the home-slice selection).
func (g *GPU) partitionSlice(part int, addr uint64) int {
	spp := g.cfg.SlicesPerPartitionActual()
	if spp == 1 {
		return part
	}
	// Row-granular hashing keeps the lines of one DRAM row behind the
	// same slice so their miss stream preserves row locality at the
	// memory controller (mirroring the home-slice selection, which uses
	// the least-significant randomized bank bits).
	return part*spp + int(sim.Mix(addr/addrmap.RowBytes)%uint64(spp))
}

// smSideSlice picks the caching slice for an SM-side UBA access: a slice
// in the SM's half, selected by address hash (every slice may cache every
// address).
func (g *GPU) smSideSlice(sm int, addr uint64) int {
	half := g.moduleOfSM(sm)
	sph := g.cfg.NumLLCSlices / 2
	return half*sph + int(sim.Mix(addr/addrmap.RowBytes)%uint64(sph))
}

// mirrorSlice returns the other half's slice caching the same addresses.
// mirrorSliceDoc (see below).
func (g *GPU) mirrorSlice(slice int, addr uint64) int {
	sph := g.cfg.NumLLCSlices / 2
	return (1-slice/sph)*sph + slice%sph
}

// replicating reports whether read-only shared lines are currently
// replicated.
func (g *GPU) replicating() bool {
	switch g.cfg.Replication {
	case config.FullRep:
		return true
	case config.MDR:
		return g.mdrCtl != nil && g.mdrCtl.Replicating()
	default:
		return false
	}
}

// accountService classifies a serviced L1 miss for the Figure 9 breakdown.
func (g *GPU) accountService(req *sim.MemReq) {
	if req.SM < 0 {
		return
	}
	if req.Remote {
		g.stats.RemoteAccesses++
		return
	}
	g.stats.LocalAccesses++
	if req.Replicated {
		g.stats.ReplicatedAccesses++
	}
}

// recordPlacementAccess feeds the §7.6 migration/replication counters and
// collapses page replicas on writes.
func (g *GPU) recordPlacementAccess(req *sim.MemReq, part int) {
	if g.cfg.Placement != config.Migration && g.cfg.Placement != config.PageReplication {
		return
	}
	vpn := req.VAddr >> g.mapper.PageShift()
	p, ok := g.drv.Lookup(vpn)
	if !ok {
		return
	}
	if req.IsWrite() && p.Replicas != nil {
		g.drv.CollapseReplicas(p)
		g.shootdown(vpn)
		if g.tracer != nil {
			g.tracer.ReplicaCollapse(g.cycle, vpn)
		}
	}
	before := g.drv.Replications
	g.drv.RecordAccess(p, part)
	if g.drv.Replications != before {
		// A replica was just created: charge the 4 KB copy and the
		// shootdown that redirects the reader partition to it.
		g.stats.PageReplicas++
		g.chargePageCopy(p.PPN, p.Replicas[part])
		g.shootdown(vpn)
		if g.tracer != nil {
			g.tracer.PageReplication(g.cycle, vpn, part)
		}
	}
}

// pageLookup returns the SM's page-table consultation seam: the driver
// lookup that finishes a translation after an L1 TLB hit. busy reports
// a frame mid-migration; ok whether a mapping exists yet.
func (g *GPU) pageLookup(part int) func(uint64, sim.Cycle) (uint64, bool, bool) {
	return func(vpn uint64, now sim.Cycle) (ppn uint64, busy, ok bool) {
		if p, ok := g.drv.Lookup(vpn); ok && p.BusyUntil > now {
			return 0, true, false
		}
		ppn, ok = g.drv.Translate(vpn, part)
		return ppn, false, ok
	}
}

// shootdown flushes a VPN from the shared L2 TLB and every L1 TLB.
func (g *GPU) shootdown(vpn uint64) {
	g.vmsys.Shootdown(vpn)
	for _, s := range g.sms {
		s.L1TLB().Flush(vpn)
	}
}

// chargePageCopy enqueues background DRAM traffic copying one page from
// frame src to frame dst (line reads + line writes).
func (g *GPU) chargePageCopy(src, dst uint64) {
	shift := g.mapper.PageShift()
	lines := int(g.cfg.PageSize) / sim.LineSize
	for i := 0; i < lines; i++ {
		off := uint64(i * sim.LineSize)
		g.migQueue.Push(&sim.MemReq{Kind: sim.Load, Addr: src<<shift | off, Size: sim.LineSize, SM: -1, DstReg: -1, ReplicaSlice: -1})
		g.migQueue.Push(&sim.MemReq{Kind: sim.Store, Addr: dst<<shift | off, Size: sim.LineSize, SM: -1, DstReg: -1, ReplicaSlice: -1})
	}
}

// drainMigQueue issues queued page-copy traffic into the channels.
func (g *GPU) drainMigQueue() {
	for {
		req, ok := g.migQueue.Peek()
		if !ok {
			return
		}
		ch := g.chans[g.mapper.Channel(req.Addr)]
		if !ch.CanEnqueue() {
			return
		}
		ch.Enqueue(req)
		g.migQueue.Pop()
	}
}

// wire installs the architecture-specific callbacks on SMs, slices and
// channels.
func (g *GPU) wire() {
	for _, s := range g.sms {
		s.VMRequest = g.vmsys.Request
		s.PageLookup = g.pageLookup(s.Part)
	}
	for _, ch := range g.chans {
		ch.Respond = g.memRespond
	}
	for _, s := range g.slices {
		s.SendMiss = g.sliceMiss
		s.StoreDone = g.storeDone
	}
	switch g.cfg.Arch {
	case config.NUBA:
		for _, s := range g.sms {
			s.Send = g.nubaSend(s.ID, s.Part)
		}
		for _, sl := range g.slices {
			sl.SendReply = g.nubaSliceReply(sl.ID, sl.Part)
			sl.SendForward = g.nubaForward(sl.ID)
		}
	case config.UBASMSide:
		for _, s := range g.sms {
			s.Send = g.smSideSend(s.ID)
		}
		for _, sl := range g.slices {
			sl.SendReply = g.ubaSliceReply(sl.ID)
			sl.SendForward = func(req *sim.MemReq, now sim.Cycle) bool { panic("core: forward on UBA") }
		}
	default: // UBA-mem
		for _, s := range g.sms {
			s.Send = g.ubaMemSend(s.ID)
		}
		for _, sl := range g.slices {
			sl.SendReply = g.ubaSliceReply(sl.ID)
			sl.SendForward = func(req *sim.MemReq, now sim.Cycle) bool { panic("core: forward on UBA") }
		}
	}
}

// storeDone retires a committed store at its SM (no wire traffic; see
// DESIGN.md on acknowledgements).
func (g *GPU) storeDone(req *sim.MemReq, now sim.Cycle) {
	if req.SM < 0 {
		return
	}
	g.accountService(req)
	g.sms[req.SM].AcceptReply(req, now)
}

// sliceMiss issues an LLC miss or writeback to the owning channel.
func (g *GPU) sliceMiss(req *sim.MemReq, now sim.Cycle) bool {
	ch := g.mapper.Channel(req.Addr)
	if g.cfg.Arch == config.UBASMSide {
		srcHalf := g.moduleOfSlice(req.Slice)
		if g.moduleOfChannel(ch) != srcHalf {
			link := g.interHalf[srcHalf]
			bytes := sim.MessageBytes(req, false)
			if !link.CanSend(now) {
				return false
			}
			link.Send(now, noc.Msg{Req: req, Dst: ch, Bytes: bytes}, bytes)
			return true
		}
	}
	return g.chans[ch].Enqueue(req)
}

// memRespond routes a finished DRAM read back to the slice that missed.
func (g *GPU) memRespond(req *sim.MemReq) {
	now := g.cycle
	if req.SM < 0 && req.Kind == sim.Load {
		return // page-copy read: no consumer
	}
	target := req.Slice
	if g.cfg.Arch == config.UBASMSide {
		ch := g.mapper.Channel(req.Addr)
		if g.moduleOfChannel(ch) != g.moduleOfSlice(target) {
			link := g.interHalf[g.moduleOfChannel(ch)]
			bytes := sim.MessageBytes(req, true)
			if link.Send(now, noc.Msg{Req: req, Dst: target, Bytes: bytes, Reply: true}, bytes) {
				return
			}
			// Link saturated: the fill is delayed one cycle by retrying
			// through the pending queue.
			g.migFillRetry = append(g.migFillRetry, req)
			return
		}
	}
	g.slices[target].AcceptFill(req, now)
}

// --- Memory-side UBA -------------------------------------------------

// ubaMemSend routes an L1 miss over the module crossbar (or inter-module
// link) to the home slice.
func (g *GPU) ubaMemSend(smID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		req.Slice = g.mapper.Slice(req.Addr)
		req.Channel = g.mapper.Channel(req.Addr)
		req.Remote = true // every UBA L1 miss traverses the NoC
		bytes := sim.MessageBytes(req, false)
		ms, md := g.moduleOfSM(smID), g.moduleOfSlice(req.Slice)
		if ms == md {
			if !g.reqXbars[ms].Inject(g.smPort(smID), now, noc.Msg{Req: req, Dst: g.slicePort(req.Slice), Bytes: bytes}) {
				return false
			}
		} else {
			link := g.interModule[ms][md]
			if !link.CanSend(now) {
				return false
			}
			link.Send(now, noc.Msg{Req: req, Dst: req.Slice, Bytes: bytes}, bytes)
		}
		g.recordPlacementAccess(req, g.cfg.PartitionOfSM(smID))
		return true
	}
}

// ubaSliceReply returns replies over the crossbar toward the SM (both UBA
// variants; SMs and their caching slices share a module by construction).
func (g *GPU) ubaSliceReply(sliceID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		bytes := sim.MessageBytes(req, true)
		ms, mr := g.moduleOfSlice(sliceID), g.moduleOfSM(req.SM)
		if ms == mr {
			return g.replyXbars[ms].Inject(g.slicePort(sliceID), now,
				noc.Msg{Req: req, Dst: g.smPort(req.SM), Bytes: bytes, Reply: true})
		}
		link := g.interModule[ms][mr]
		if !link.CanSend(now) {
			return false
		}
		link.Send(now, noc.Msg{Req: req, Dst: req.SM, Bytes: bytes, Reply: true}, bytes)
		return true
	}
}

// --- SM-side UBA ------------------------------------------------------

// smSideSend routes an L1 miss to a slice in the SM's half and, for
// stores, emits the cross-half coherence invalidation.
func (g *GPU) smSideSend(smID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		req.Slice = g.smSideSlice(smID, req.Addr)
		req.Channel = g.mapper.Channel(req.Addr)
		req.Remote = true
		bytes := sim.MessageBytes(req, false)
		half := g.moduleOfSM(smID)
		if !g.reqXbars[half].Inject(g.smPort(smID), now, noc.Msg{Req: req, Dst: g.slicePort(req.Slice), Bytes: bytes}) {
			return false
		}
		if req.IsWrite() {
			inval := &sim.MemReq{
				Kind: sim.Store, Addr: req.Addr, Size: 0, SM: -1, DstReg: -1,
				Slice: g.mirrorSlice(req.Slice, req.Addr), ReplicaSlice: -1, Inval: true,
			}
			g.invalQueue.Push(inval)
		}
		g.recordPlacementAccess(req, g.cfg.PartitionOfSM(smID))
		return true
	}
}

// drainInvalQueue pushes pending coherence invalidations over the
// inter-half links.
func (g *GPU) drainInvalQueue(now sim.Cycle) {
	for {
		inv, ok := g.invalQueue.Peek()
		if !ok {
			return
		}
		srcHalf := 1 - g.moduleOfSlice(inv.Slice)
		link := g.interHalf[srcHalf]
		if !link.CanSend(now) {
			return
		}
		link.Send(now, noc.Msg{Req: inv, Dst: inv.Slice, Bytes: sim.ReqBytes, Inval: true}, sim.ReqBytes)
		g.stats.CoherenceTraffic += sim.ReqBytes
		g.invalQueue.Pop()
	}
}

// --- NUBA --------------------------------------------------------------

// nubaSend injects an L1 miss into the SM's point-to-point request link;
// classification, replica routing and MDR profiling happen here.
func (g *GPU) nubaSend(smID, part int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		link := g.smReqLinks[smID]
		if !link.CanSend(now) {
			return false
		}
		req.Slice = g.mapper.Slice(req.Addr)
		req.Channel = g.mapper.Channel(req.Addr)
		local := g.cfg.PartitionOfSlice(req.Slice) == part
		if !local && req.ReadOnly && req.Kind == sim.Load && g.replicating() {
			req.ReplicaSlice = g.partitionSlice(part, req.Addr)
		}
		if g.mdrProf != nil {
			g.mdrProf.Observe(req, req.Slice, local, g.partitionSlice(part, req.Addr), now)
		}
		g.recordPlacementAccess(req, part)
		bytes := sim.MessageBytes(req, false)
		link.Send(now, req, bytes)
		return true
	}
}

// moveNUBARequestLinks delivers arrived requests from SM links into local
// slices or onto the NoC.
func (g *GPU) moveNUBARequestLinks(now sim.Cycle) {
	for smID, link := range g.smReqLinks {
		part := g.cfg.PartitionOfSM(smID)
		for {
			req, ok := link.Peek(now)
			if !ok {
				break
			}
			var accepted bool
			switch {
			case req.ReplicaSlice >= 0:
				accepted = g.slices[req.ReplicaSlice].EnqueueLocal(req)
			case g.cfg.PartitionOfSlice(req.Slice) == part:
				accepted = g.slices[req.Slice].EnqueueLocal(req)
			default:
				accepted = g.nubaInjectNoC(g.partitionSlice(part, req.Addr), req.Slice, req, false, now)
			}
			if !accepted {
				break
			}
			link.Pop(now)
		}
	}
}

// nubaInjectNoC injects a request or reply into the slice-to-slice NoC
// from srcSlice toward dstSlice, crossing module links when needed.
func (g *GPU) nubaInjectNoC(srcSlice, dstSlice int, req *sim.MemReq, reply bool, now sim.Cycle) bool {
	req.Remote = true
	bytes := sim.MessageBytes(req, reply)
	ms, md := g.moduleOfSlice(srcSlice), g.moduleOfSlice(dstSlice)
	if ms == md {
		fabric := g.reqXbars[ms]
		if reply {
			fabric = g.replyXbars[ms]
		}
		return fabric.Inject(g.slicePort(srcSlice), now,
			noc.Msg{Req: req, Dst: g.slicePort(dstSlice), Bytes: bytes, Reply: reply})
	}
	link := g.interModule[ms][md]
	if !link.CanSend(now) {
		return false
	}
	link.Send(now, noc.Msg{Req: req, Dst: dstSlice, Bytes: bytes, Reply: reply}, bytes)
	return true
}

// nubaSliceReply routes a finished request from a slice: locally over the
// partition reply link, or across the NoC toward the requester's
// partition (or the replica slice awaiting a fill).
func (g *GPU) nubaSliceReply(sliceID, part int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		// Home slice answering a forwarded replica miss: return the line
		// to the replica slice.
		if req.ReplicaSlice >= 0 && req.ReplicaSlice != sliceID {
			return g.nubaInjectNoC(sliceID, req.ReplicaSlice, req, true, now)
		}
		rp := g.cfg.PartitionOfSM(req.SM)
		if rp == part {
			link := g.sliceReplyLinks[sliceID]
			bytes := sim.MessageBytes(req, true)
			if !link.CanSend(now) {
				return false
			}
			link.Send(now, req, bytes)
			return true
		}
		return g.nubaInjectNoC(sliceID, g.partitionSlice(rp, req.Addr), req, true, now)
	}
}

// nubaForward sends a replica-slice miss to the line's home slice.
func (g *GPU) nubaForward(sliceID int) func(*sim.MemReq, sim.Cycle) bool {
	return func(req *sim.MemReq, now sim.Cycle) bool {
		return g.nubaInjectNoC(sliceID, req.Slice, req, false, now)
	}
}

// moveNUBAReplyLinks delivers replies from slice links to their SMs.
func (g *GPU) moveNUBAReplyLinks(now sim.Cycle) {
	for _, link := range g.sliceReplyLinks {
		for {
			req, ok := link.Pop(now)
			if !ok {
				break
			}
			g.accountService(req)
			g.sms[req.SM].AcceptReply(req, now)
		}
	}
}

// moveXbars runs both fabrics' arbitration and drains their egress ports.
func (g *GPU) moveXbars(now sim.Cycle) {
	for m := range g.reqXbars {
		rq, rp := g.reqXbars[m], g.replyXbars[m]
		rq.Tick(now)
		rp.Tick(now)
		// Request egress: slices consume.
		for p := 0; p < rq.OutPorts(); p++ {
			for {
				msg, ok := rq.Peek(p, now)
				if !ok {
					break
				}
				sl := g.slices[m*g.slicesPerModule()+p]
				if !sl.CanAcceptRemote() {
					break
				}
				sl.EnqueueRemote(msg.Req)
				rq.Pop(p, now)
			}
		}
		// Reply egress: SMs (UBA) or slices (NUBA pass-through/replica).
		for p := 0; p < rp.OutPorts(); p++ {
			for {
				msg, ok := rp.Peek(p, now)
				if !ok {
					break
				}
				if !g.deliverReply(m, p, msg, now) {
					break
				}
				rp.Pop(p, now)
			}
		}
	}
}

// deliverReply hands an egressing reply to its consumer, reporting
// whether it was accepted (back-pressure otherwise).
func (g *GPU) deliverReply(module, port int, msg noc.Msg, now sim.Cycle) bool {
	req := msg.Req
	if g.cfg.Arch == config.NUBA {
		sliceID := module*g.slicesPerModule() + port
		sl := g.slices[sliceID]
		if req.ReplicaSlice == sliceID && req.Slice != sliceID {
			sl.AcceptReplicaFill(req, now)
			return true
		}
		// Pass-through reply toward a local SM.
		link := g.sliceReplyLinks[sliceID]
		if !link.CanSend(now) {
			return false
		}
		link.Send(now, req, sim.MessageBytes(req, true))
		return true
	}
	smID := module*g.smsPerModule() + port
	g.accountService(req)
	g.sms[smID].AcceptReply(req, now)
	return true
}

// moveInterHalf drains the SM-side UBA cross-half links.
func (g *GPU) moveInterHalf(now sim.Cycle) {
	for h := 0; h < 2; h++ {
		link := g.interHalf[h]
		if link == nil {
			continue
		}
		for {
			msg, ok := link.Peek(now)
			if !ok {
				break
			}
			var accepted bool
			switch {
			case msg.Inval:
				sl := g.slices[msg.Dst]
				accepted = sl.CanAcceptRemote() && sl.EnqueueRemote(msg.Req)
			case msg.Reply:
				g.slices[msg.Dst].AcceptFill(msg.Req, now)
				accepted = true
			default:
				accepted = g.chans[msg.Dst].Enqueue(msg.Req)
			}
			if !accepted {
				break
			}
			link.Pop(now)
		}
	}
}

// moveInterModule drains MCM inter-module links.
func (g *GPU) moveInterModule(now sim.Cycle) {
	if g.interModule == nil {
		return
	}
	for a := range g.interModule {
		for b := range g.interModule[a] {
			link := g.interModule[a][b]
			if link == nil {
				continue
			}
			for {
				msg, ok := link.Peek(now)
				if !ok {
					break
				}
				if !g.deliverInterModule(msg, now) {
					break
				}
				link.Pop(now)
			}
		}
	}
}

// deliverInterModule hands an inter-module message to its target.
func (g *GPU) deliverInterModule(msg noc.Msg, now sim.Cycle) bool {
	req := msg.Req
	if g.cfg.Arch == config.NUBA {
		sl := g.slices[msg.Dst]
		if msg.Reply {
			if req.ReplicaSlice == msg.Dst && req.Slice != msg.Dst {
				sl.AcceptReplicaFill(req, now)
				return true
			}
			link := g.sliceReplyLinks[msg.Dst]
			if !link.CanSend(now) {
				return false
			}
			link.Send(now, req, sim.MessageBytes(req, true))
			return true
		}
		if !sl.CanAcceptRemote() {
			return false
		}
		sl.EnqueueRemote(req)
		return true
	}
	// UBA-mem MCM.
	if msg.Reply {
		g.accountService(req)
		g.sms[msg.Dst].AcceptReply(req, now)
		return true
	}
	sl := g.slices[msg.Dst]
	if !sl.CanAcceptRemote() {
		return false
	}
	sl.EnqueueRemote(req)
	return true
}
