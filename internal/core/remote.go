package core

// The cross-GPU covert channel: sender and receiver kernels on *different*
// GPUs of an internal/mesh system, communicating by modulating contention on
// the NVLink link between them — the channel NVBleed and "Beyond the Bridge"
// (PAPERS.md) demonstrate on real multi-GPU servers, run over this repo's
// existing Algorithm 2 protocol.
//
// The shared resource is the sender-to-receiver NVLink link. The sender
// floods it with remote *writes* into a window of the receiver's device
// memory (write requests carry their data flits across the link); the
// receiver times remote *reads* of a window in the sender's device memory,
// whose data replies return over that same link. When the sender floods, the
// receiver's replies queue behind the write bursts and its round-trip
// latency rises — the same mean-slot-latency observable the on-die channels
// decode, shifted up by two NVLink hop traversals.
//
// Synchronization is the one genuinely new problem: the two devices'
// clock registers are offset by independent per-device constants
// (internal/clockreg seeds each device differently), so waiting for
// clock % modulus == 0 no longer aligns the sides. Each program instead
// cancels its own device's offset through the phase hook (phaseFunc in
// program.go): the offset is learned once before the transmission — the
// cross-device analogue of the paper's §4.1 clock characterization — and
// passed as the SyncClock residue, aligning both sides in global time.

import (
	"fmt"
	"math/rand"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/mesh"
)

// remoteWindowBase is the offset, within each device's address window, of
// the probe/flood windows used by the NVLink channel. It is far above the
// per-SM windows of the on-die channels so a co-resident local transmission
// cannot collide with it.
const remoteWindowBase = 1 << 20

// nvlinkSenderSMs is the number of sender SMs flooding the link. The flood
// must be strong enough to stand a queue on the ~0.52 flits/cycle link (one
// SM's LSU, capped at LSUQueueDepth outstanding, cannot) yet bounded so the
// queue drains before the slot boundary — four SMs' worth of outstanding
// writes saturates the link with a standing queue of a few hundred flits
// that clears within a slot.
const nvlinkSenderSMs = 4

// NVLinkTransmission is a prepared cross-GPU covert transmission: one sender
// kernel on the sending device, one receiver kernel on the receiving device,
// joined by the mesh fabric. It reuses the Transmission decode machinery —
// the wire protocol (slots, sync, coding, preambles) is identical; only the
// contended medium differs.
type NVLinkTransmission struct {
	Transmission
	m          *mesh.Mesh
	sdev, rdev int
}

// NewNVLinkTransmission prepares a transmission from a sender kernel on
// device sdev to a receiver kernel on device rdev of mesh m. The payload is
// carried over the single sdev->rdev NVLink path as one unit (PairResult.Unit
// is rdev). The mesh must be freshly built: kernels are launched by Run.
func NewNVLinkTransmission(m *mesh.Mesh, sdev, rdev int, payload []Symbol, p Params) (*NVLinkTransmission, error) {
	p.Kind = NVLinkChannel
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	n := m.NumDevices()
	if sdev < 0 || sdev >= n || rdev < 0 || rdev >= n {
		return nil, fmt.Errorf("core: device pair (%d,%d) outside mesh of %d", sdev, rdev, n)
	}
	if sdev == rdev {
		return nil, fmt.Errorf("core: NVLink channel needs distinct devices, got %d twice", sdev)
	}
	cfg := m.GPU(rdev).Config()
	nt := &NVLinkTransmission{m: m, sdev: sdev, rdev: rdev}
	tr := &nt.Transmission
	tr.cfg = cfg
	tr.params = p
	tr.units = []int{rdev}
	tr.data = [][]Symbol{payload}
	tr.chunks = tr.wireChunks()

	// The sender floods a window in the *receiver's* device memory; the
	// receiver probes a window in the *sender's* device memory, so its read
	// replies share the sender's flood link. Each side cancels its own
	// device's clock offset through the phase hook (offsets are constants,
	// readable at any time; global cycle 0 is used for definiteness).
	sWindow := mesh.DevBase(rdev) + remoteWindowBase
	rWindow := mesh.DevBase(sdev) + remoteWindowBase
	sClocks := m.GPU(sdev).Clocks()
	rClocks := m.GPU(rdev).Clocks()

	pp := tr.params
	// One SM's LSU cannot back up the NVLink (its outstanding-request cap
	// is below the link's bandwidth-delay product), so the flood runs on
	// several SMs of the sending device — NVBleed saturates the link with a
	// multi-SM copy for the same reason. The receiver needs no co-location
	// trick at all: it sits alone on the other device.
	senderSMs := nvlinkSenderSMs
	if n := cfg.NumSMs(); senderSMs > n {
		senderSMs = n
	}
	tr.senderSpec = device.KernelSpec{
		Name:          "cc-sender-nvlink",
		Blocks:        senderSMs,
		WarpsPerBlock: pp.SenderWarps,
		New: func(b, w int) device.Program {
			return &senderProgram{
				p:      &tr.params,
				chunk:  func(smid int) []Symbol { return tr.chunks[0] },
				window: func(smid int) uint64 { return sWindow },
				phase:  func(smid int) uint64 { return sClocks.Read64(smid, 0) },
				write:  true, // writes carry data flits across the flood link
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
				rng:    rand.New(rand.NewSource(pp.Seed ^ int64(b*64+w+1)*2654435761)),
			}
		},
	}

	tr.receivers = make([]*receiverProgram, 1)
	tr.receiverSpec = device.KernelSpec{
		Name:          "cc-receiver-nvlink",
		Blocks:        1,
		WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			return &receiverProgram{
				p:      &tr.params,
				active: func(smid int) bool { return true },
				window: func(smid int) uint64 { return rWindow },
				phase:  func(smid int) uint64 { return rClocks.Read64(smid, 0) },
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
				rng:    rand.New(rand.NewSource(pp.Seed ^ int64(b+7)*40503)),
			}
		},
	}
	tr.bindReceivers(func(smid int) (int, bool) { return 0, true })

	return nt, nil
}

// Run preloads both probe windows on their owning devices, launches the
// sender on sdev and the receiver on rdev launchSkew global cycles later,
// runs the mesh until both kernels complete, and decodes the transmission.
func (nt *NVLinkTransmission) Run(launchSkew uint64) (Result, error) {
	m, tr := nt.m, &nt.Transmission
	windowBytes := uint64(2 * tr.cfg.SIMTWidth * tr.cfg.L2LineBytes)
	m.GPU(nt.rdev).Preload(mesh.DevBase(nt.rdev)+remoteWindowBase, windowBytes)
	m.GPU(nt.sdev).Preload(mesh.DevBase(nt.sdev)+remoteWindowBase, windowBytes)
	if _, err := m.GPU(nt.sdev).Launch(tr.senderSpec); err != nil {
		return Result{}, err
	}
	if _, err := m.LaunchAt(nt.rdev, m.Now()+launchSkew, tr.receiverSpec); err != nil {
		return Result{}, err
	}
	return tr.Finish(m)
}

// CalibrateRemote is Calibrate for the NVLink channel: it transmits a known
// alternating pattern from sdev to rdev over a fresh mesh built from base
// (gpus devices; zero means two) and returns params with thresholds at the
// measured level-mean midpoints. The calibration mesh is discarded — the
// thresholds depend only on the NVLink parameters and topology, which any
// mesh built from the same base reproduces.
func CalibrateRemote(base config.Config, gpus, sdev, rdev int, p Params, preambleSlots int) (Params, error) {
	p.Kind = NVLinkChannel
	if gpus == 0 {
		gpus = 2
	}
	return calibrate(p, preambleSlots, func(cal Params, payload []Symbol) (Result, error) {
		m, err := mesh.New(base, gpus)
		if err != nil {
			return Result{}, err
		}
		nt, err := NewNVLinkTransmission(m, sdev, rdev, payload, cal)
		if err != nil {
			return Result{}, err
		}
		return nt.Run(0)
	})
}
