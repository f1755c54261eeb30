package analyses

import (
	"repro/internal/compiler"
	"repro/internal/vm"
)

// FastTrack's vector-clock machinery, implemented as ALDA external
// functions. The epoch fast path lives in ALDA metadata (fasttrack.alda);
// these externals maintain per-thread and per-lock vector clocks for the
// acquire/release/fork/join edges — operations that need loops, which
// ALDA deliberately lacks (§3.3).
//
// Epochs pack as (clock << 8) | tid, matching FastTrack's 32-bit epoch
// trick scaled to our 64-bit values.

const ftMaxThreads = 256

type ftState struct {
	vc     [ftMaxThreads][]uint64 // thread -> vector clock, nil until first use
	lockVC map[uint64][]uint64    // lock value -> release clock
}

func newFTState() *ftState {
	return &ftState{lockVC: make(map[uint64][]uint64)}
}

func (s *ftState) threadVC(t uint64) []uint64 {
	t &= ftMaxThreads - 1
	v := s.vc[t]
	if v == nil {
		v = make([]uint64, ftMaxThreads)
		v[t] = 1 // every thread starts at clock 1 so epoch 0 means "none"
		s.vc[t] = v
	}
	return v
}

func joinInto(dst, src []uint64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// FastTrackExternals returns the external-function table. State lives on
// the running Machine (vm.Machine.ExtState), not in these closures: a
// compiled analysis — and with the compile cache, its Externals table —
// is shared by every Machine that runs it, including Machines running
// concurrently on harness worker goroutines.
func FastTrackExternals() map[string]compiler.ExternalFn {
	get := func(m *vm.Machine) *ftState {
		return m.ExtState("fasttrack", func() any { return newFTState() }).(*ftState)
	}

	return map[string]compiler.ExternalFn{
		// ft_epoch(t) -> (C_t(t) << 8) | t
		"ft_epoch": func(m *vm.Machine, args []uint64) uint64 {
			s := get(m)
			t := args[0] & (ftMaxThreads - 1)
			return s.threadVC(t)[t]<<8 | t
		},
		// ft_hb(epoch, t) -> 1 if epoch happens-before thread t's now.
		"ft_hb": func(m *vm.Machine, args []uint64) uint64 {
			s := get(m)
			epoch := args[0]
			if epoch == 0 {
				return 1 // no prior access
			}
			t := args[1] & (ftMaxThreads - 1)
			etid := epoch & 0xff
			eclk := epoch >> 8
			if s.threadVC(t)[etid] >= eclk {
				return 1
			}
			return 0
		},
		// ft_acquire(l, t): VC_t ⊔= L_l
		"ft_acquire": func(m *vm.Machine, args []uint64) uint64 {
			s := get(m)
			l, t := args[0], args[1]&(ftMaxThreads-1)
			if lv := s.lockVC[l]; lv != nil {
				joinInto(s.threadVC(t), lv)
			}
			return 0
		},
		// ft_release(l, t): L_l = VC_t; C_t(t)++
		"ft_release": func(m *vm.Machine, args []uint64) uint64 {
			s := get(m)
			l, t := args[0], args[1]&(ftMaxThreads-1)
			tv := s.threadVC(t)
			lv := s.lockVC[l]
			if lv == nil {
				lv = make([]uint64, ftMaxThreads)
				s.lockVC[l] = lv
			}
			copy(lv, tv)
			tv[t]++
			return 0
		},
		// ft_fork(parent, child): VC_child ⊔= VC_parent; C_parent++
		"ft_fork": func(m *vm.Machine, args []uint64) uint64 {
			s := get(m)
			p, c := args[0]&(ftMaxThreads-1), args[1]&(ftMaxThreads-1)
			pv := s.threadVC(p)
			joinInto(s.threadVC(c), pv)
			pv[p]++
			return 0
		},
		// ft_join(parent, child): VC_parent ⊔= VC_child; C_child++
		"ft_join": func(m *vm.Machine, args []uint64) uint64 {
			s := get(m)
			p, c := args[0]&(ftMaxThreads-1), args[1]&(ftMaxThreads-1)
			cv := s.threadVC(c)
			joinInto(s.threadVC(p), cv)
			cv[c]++
			return 0
		},
	}
}
