// Checkpoint support for the fabric. A snapshot holds every link's queues
// plus one activity bit per link; exhaustive mode, which has no active sets,
// derives the bit from Idle, and restore routes the bits into the restoring
// fabric's sets, if it has any.
package noc

import (
	"gpunoc/internal/link"
	"gpunoc/internal/sched"
	"gpunoc/internal/snap"
)

// Snapshot appends the fabric's mutable state — every link of the five tick
// groups plus the activity bit of each — to the encoder.
func (n *Network) Snapshot(e *snap.Encoder) {
	e.Mark("noc")
	groups := n.linkGroups()
	for _, tg := range groups {
		e.Int(len(tg.links))
		for _, l := range tg.links {
			l.Snapshot(e)
		}
	}
	for _, tg := range groups {
		for i, l := range tg.links {
			e.Bool(activeBit(tg.set, i, l))
		}
	}
}

// Restore reads state written by Snapshot into a fabric built from the same
// configuration.
func (n *Network) Restore(d *snap.Decoder) error {
	d.Expect("noc")
	groups := n.linkGroups()
	for _, tg := range groups {
		if c := d.Int(); d.Err() == nil && c != len(tg.links) {
			return snap.Corruptf("snapshot holds %d links in a fabric group of %d", c, len(tg.links))
		}
		for _, l := range tg.links {
			if err := l.Restore(d); err != nil {
				return err
			}
		}
	}
	for _, tg := range groups {
		for i := range tg.links {
			if d.Bool() && tg.set != nil {
				tg.set.Wake(i)
			}
		}
	}
	return d.Err()
}

// linkGroup pairs one link group with its active set (nil in exhaustive
// mode).
type linkGroup struct {
	set   *sched.ActiveSet
	links []*link.Link
}

// linkGroups lists the five link groups in tick order, the order their
// activity bits are serialized in.
func (n *Network) linkGroups() []linkGroup {
	return []linkGroup{
		{n.actReqTPC, n.reqTPC},
		{n.actReqGPC, n.reqGPC},
		{n.actXbar, n.xbarIn},
		{n.actRepGPC, n.repGPC},
		{n.actRepTPC, n.repTPC},
	}
}

// activeBit reads link i's activity from its group's set; in exhaustive mode
// (no sets) it derives the bit from Idle, which is exact for simulation
// state (parking is only legal when ticking is a no-op).
func activeBit(set *sched.ActiveSet, i int, l *link.Link) bool {
	if set != nil {
		return set.Active(i)
	}
	return !l.Idle()
}
