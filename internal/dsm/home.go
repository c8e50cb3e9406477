package dsm

import (
	"fmt"
	"slices"

	"millipage/internal/fastmsg"
	"millipage/internal/sim"
)

// homeMove moves minipage ID's home to host To at a barrier.
type homeMove struct{ ID, To int }

// writeRecord is a minipage's writers by barrier epoch, which moves reads
// in place: the coordinator's notices fill it under lrc-mw, the home's
// writeEffect under SC.
type writeRecord struct {
	sole  int16  // 1 + the only writer of epoch `epoch` (hosts number at most 1,024); -1 if several
	last  int16  // sole as of the last epoch before that which wrote it
	epoch uint32 // 1 + the barrier epoch sole describes; 0 if never written
}

// add records host w's write in barrier epoch e.
func (r *writeRecord) add(w int, e uint32) {
	if c := int16(w) + 1; r.epoch != e+1 {
		r.last, r.sole, r.epoch = r.sole, c, e+1
	} else if r.sole != c {
		r.sole = -1
	}
}

// moves finds a barrier's home moves, under either class: a minipage moves
// to w if w was its only writer in the epoch the barrier closes and in the
// last one that wrote it, and is not its home yet. A sole writer that
// changes every epoch (a lock rotating, one host's initialization) keeps
// it. Each host adopts the new table the moves make; one not yet released
// reads the one before.
func (s *System) moves() []homeMove {
	for _, no := range s.log {
		for _, id := range no.MPs {
			s.record(id).add(no.Creator, s.epoch)
		}
	}
	s.moved = s.moved[:0]
	for id := range s.places {
		w := &s.places[id]
		if to := int(w.sole) - 1; w.epoch == s.epoch+1 && w.last == w.sole && to >= 0 && s.home(s.homes, id) != to {
			s.moved = append(s.moved, homeMove{id, to})
		}
	}
	if len(s.moved) > 0 { // in the table before this one, which every host has let go of
		t := append(s.spare[:0], s.homes...)
		t = append(t, make([]int16, len(s.places)-len(t))...)
		for _, mv := range s.moved {
			t[mv.ID] = int16(mv.To) + 1
		}
		s.homes, s.spare = t, s.homes
	}
	s.stats.Migrations += uint64(len(s.moved))
	s.epoch++
	return s.moved
}

// record is minipage id's write record, the table grown over the MPT.
func (s *System) record(id int) *writeRecord {
	if id >= len(s.places) {
		s.places = append(s.places, make([]writeRecord, s.mpt.NumMinipages()-len(s.places))...)
	}
	return &s.places[id]
}

// home is minipage id's home under table: HomeOf until a barrier moved it.
func (s *System) home(table []int16, id int) int {
	if id < len(table) && table[id] != 0 {
		return int(table[id]) - 1
	}
	return s.HomeOf(id)
}

// homeOf is minipage id's home as this host knows it.
func (h *Host) homeOf(id int) int { return h.sys.home(h.homes, id) }

// adopt makes a barrier release's home table this host's, and sends
// itself the directory messages that waited for it (dir); under -tags
// invariants it is the coordinator's. Each thread the release wakes adopts
// it; the host's later ones find nothing left to do.
func (h *Host) adopt(p *sim.Proc, x *mwSync) {
	h.epoch, h.homes = x.Epoch, x.Homes
	if s := h.sys; Invariants && (h.epoch != s.epoch || !slices.Equal(h.homes, s.homes)) {
		panic(fmt.Sprintf("dsm: host %d's home table at epoch %d is %v, the coordinator's at %d %v", h.ID(), h.epoch, h.homes, s.epoch, s.homes))
	}
	for m := h.early.Pop(); m != nil; m = h.early.Pop() {
		h.send(p, h.ID(), m)
	}
}

// dir runs a directory message at this host, an ack closing onto queued
// requests in engine context too (each is translated). lrc-mw keeps no
// directory: its read is a fetch, whose requester, blocked on it, cannot
// cross a barrier. One for a minipage homed elsewhere crossed a home move:
// routed in a later barrier epoch than this host's, it waits for this
// host's release (adopt); in an earlier one, it goes on to this host's
// home for it; in the same, resolve panics.
func dir(h *Host, p *sim.Proc, m *Msg, _ *fastmsg.Message) *fastmsg.Message {
	switch {
	case h.sys.mw:
		return h.fetch(p, m)
	case m.Epoch == h.epoch || h.serves(m.Info.ID):
		return h.dispatch(p, m)
	case m.Epoch > h.epoch:
		h.early.Push(m)
		return nil
	}
	m.Epoch = h.epoch
	return h.post(h.homeOf(m.Info.ID), m)
}
