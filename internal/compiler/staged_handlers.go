// Code generated by go run ./internal/analyses/stagegen; DO NOT EDIT.

package compiler

import (
	"repro/internal/meta"
	"repro/internal/vm"
)

// stagedTable maps stage keys to the checked-in handler tables.
var stagedTable = map[string]stagedFactory{
	"8c2bb36b21aba7f63c3e6119": stagedEraser,           // eraser (full)
	"d526499278bf9a848f3bf2f3": stagedFasttrack,        // fasttrack (full)
	"387f13219e5236b3cd169f5a": stagedMsan,             // msan (full)
	"df08263285158f7522069170": stagedSslsan,           // sslsan (full)
	"b47d1822d5a9c6b6bdab8299": stagedStrictalias,      // strictalias (full)
	"ce6ae5c1e7b6b16ecb238d25": stagedTainttrack,       // tainttrack (full)
	"9c879db998278b6abb0153e7": stagedUaf,              // uaf (full)
	"5a39ccb64bdcba35d0de6f9f": stagedZlibsan,          // zlibsan (full)
	"c25bdcafdc228f2c4d55168a": stagedEraserDsonly,     // eraser (dsonly)
	"59ecbe974295582a9a6a5011": stagedEraserNocse,      // eraser (nocse)
	"c8b619d35b4b2bee940e560a": stagedEraserNocoalesce, // eraser (nocoalesce)
	"f4d847104945ea79f6e0ac72": stagedEraserNaive,      // eraser (naive)
	"9580da718839c51546bbf7af": stagedUafGran1,         // uaf (gran1)
	"2582ad2f71b495ed123c3238": stagedUafGran2,         // uaf (gran2)
	"477afec5bfb782f3a3769ae1": stagedUafGran4,         // uaf (gran4)
	"a889462d98180bdaf69b1ebf": stagedCombined,         // eraser+fasttrack+uaf+tainttrack (full)
	"278d6023924129f957e2013e": stagedCombinedNofuse,   // eraser+fasttrack+uaf+tainttrack (nofuse)
	"8bd6dff790f5b2a51ef7f57b": stagedMsanSplit,        // msan (split)
}

// stagedEraser stages eraser (full).
func stagedEraser(rt *Runtime) []vm.HandlerFn {
	inlid := rt.internTable("lid")
	c0 := rt.groups[0].c.(*meta.ArrayMap)
	mu1 := &rt.groups[1].mu
	c1 := rt.groups[1].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// eraserOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c0.Entry(args[1])
				meta.BitAdd(e0[4:8], t1%256)
				t3 := internValue(inlid, 256, args[0])
				meta.BitAdd(e0[0:4], t3%256)
			}
			return 0
		},
		// eraserOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c0.Entry(args[1])
				meta.BitRemove(e0[4:8], t1%256)
				t3 := internValue(inlid, 256, args[0])
				meta.BitRemove(e0[0:4], t3%256)
			}
			return 0
		},
		// eraserOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var v0 uint64
			var v0ok bool
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[4:5], args[1]%64))
				t3 := false
				if !(t1 != 0) {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					v0ok = true
					t2 := v0
					t3 = int64(t2) != 0
				}
				if t3 {
					if !v0ok {
						v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
						v0ok = true
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e0, 320, 8, 2)
						v0 = cachedStore(2, 8, true)
						v0ok = true
					}
					meta.BitAdd(e0[4:5], args[1]%64)
				}
				if !v0ok {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					v0ok = true
				}
				t6 := v0
				if int64(t6) > 1 {
					e1 = c0.Entry(args[1])
					meta.BitAnd(e0[0:4], e0[0:4], e1[4:8])
					t7 := v0
					if int64(t7) == 3 {
						rt.stats.Asserts++
						t8 := b2u(meta.BitEmpty(e0[0:4]))
						if t8 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnLoad", "data race: unprotected read", t8, 0)
						}
					}
				}
			}
			mu1.Unlock()
			return 0
		},
		// eraserOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var v0 uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[4:5], args[1]%64))
				if !(t1 != 0) {
					meta.BitAdd(e0[4:5], args[1]%64)
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					t3 := v0
					if int64(t3) == 2 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t5 := v0
					if int64(t5) == 0 {
						meta.StoreField(e0, 320, 8, 1)
						v0 = cachedStore(1, 8, true)
					}
				} else {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					t6 := v0
					if int64(t6) == 2 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
				}
				t7 := v0
				if int64(t7) > 1 {
					e1 = c0.Entry(args[1])
					meta.BitAnd(e0[0:4], e0[0:4], e1[0:4])
					t8 := v0
					if int64(t8) == 3 {
						rt.stats.Asserts++
						t9 := b2u(meta.BitEmpty(e0[0:4]))
						if t9 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnStore", "data race: unprotected write", t9, 0)
						}
					}
				}
			}
			mu1.Unlock()
			return 0
		},
	}
}

// stagedFasttrack stages fasttrack (full).
func stagedFasttrack(rt *Runtime) []vm.HandlerFn {
	buf0_0 := make([]uint64, 2)
	ext0 := rt.externals[0]
	buf1_0 := make([]uint64, 2)
	ext1 := rt.externals[1]
	buf2_0 := make([]uint64, 2)
	ext2 := rt.externals[2]
	buf3_0 := make([]uint64, 2)
	ext3 := rt.externals[3]
	mu0 := &rt.groups[0].mu
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	buf4_0 := make([]uint64, 1)
	ext4 := rt.externals[4]
	buf4_1 := make([]uint64, 2)
	ext5 := rt.externals[5]
	buf4_2 := make([]uint64, 1)
	buf5_0 := make([]uint64, 1)
	buf5_1 := make([]uint64, 2)
	buf5_2 := make([]uint64, 2)
	buf5_3 := make([]uint64, 1)
	return []vm.HandlerFn{
		// ftOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf0_0[0] = args[0]
				buf0_0[1] = args[1]
				t1 := ext0(m, buf0_0)
				_ = t1
			}
			return 0
		},
		// ftOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf1_0[0] = args[0]
				buf1_0[1] = args[1]
				t1 := ext1(m, buf1_0)
				_ = t1
			}
			return 0
		},
		// ftOnSpawn
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf2_0[0] = args[1]
				buf2_0[1] = args[0]
				t1 := ext2(m, buf2_0)
				_ = t1
			}
			return 0
		},
		// ftOnJoin
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf3_0[0] = args[1]
				buf3_0[1] = args[0]
				t1 := ext3(m, buf3_0)
				_ = t1
			}
			return 0
		},
		// ftOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			var v1 uint64
			mu0.Lock()
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 64, 64)
				t1 := v0
				buf4_0[0] = args[1]
				t2 := ext4(m, buf4_0)
				if int64(t1) != int64(t2) {
					rt.stats.Asserts++
					v1 = meta.LoadField(e0, 0, 64)
					t3 := v1
					buf4_1[0] = t3
					buf4_1[1] = args[1]
					t4 := ext5(m, buf4_1)
					if t4 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnLoad", "write-read race", t4, 1)
					}
					buf4_2[0] = args[1]
					t5 := ext4(m, buf4_2)
					meta.StoreField(e0, 64, 64, t5)
					v0 = cachedStore(t5, 64, true)
				}
			}
			mu0.Unlock()
			return 0
		},
		// ftOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			var v1 uint64
			mu0.Lock()
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 0, 64)
				t1 := v0
				buf5_0[0] = args[1]
				t2 := ext4(m, buf5_0)
				if int64(t1) != int64(t2) {
					rt.stats.Asserts++
					t3 := v0
					buf5_1[0] = t3
					buf5_1[1] = args[1]
					t4 := ext5(m, buf5_1)
					if t4 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnStore", "write-write race", t4, 1)
					}
					rt.stats.Asserts++
					v1 = meta.LoadField(e0, 64, 64)
					t5 := v1
					buf5_2[0] = t5
					buf5_2[1] = args[1]
					t6 := ext5(m, buf5_2)
					if t6 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnStore", "read-write race", t6, 1)
					}
					buf5_3[0] = args[1]
					t7 := ext4(m, buf5_3)
					meta.StoreField(e0, 0, 64, t7)
					v0 = cachedStore(t7, 64, true)
				}
			}
			mu0.Unlock()
			return 0
		},
	}
}

// stagedMsan stages msan (full).
func stagedMsan(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// onMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 18446744073709551615)
				}
				e0 = c0.Entry((args[0] >> 3))
				meta.StoreField(e0, 64, 64, args[1])
			}
			return 0
		},
		// onCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry((args[0] >> 3))
				meta.StoreField(e0, 64, 64, (args[1] * args[2]))
			}
			return 0
		},
		// onFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 64, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 3)
					if t4 > 0 {
						if t4 == 1 {
							meta.StoreField(e0, 0, 8, 18446744073709551615)
						} else {
							c0.Fill(t3, t4, 0, 8, 18446744073709551615)
						}
					}
					meta.StoreField(e0, 64, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			return 0
		},
		// onAlloca
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 18446744073709551615)
				}
			}
			return 0
		},
		// onStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, args[1])
				}
			}
			return 0
		},
		// onLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[1], 3)
				var t3 uint64
				if t2 != 0 {
					t3 = meta.SignExtend(c0.RangeOr(t1, t2, 0, 8), 8)
				}
				return t3
			}
		},
		// onBranch
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				rt.stats.Asserts++
				if args[0] != 0 {
					rt.stats.AssertFailures++
					m.Report("onBranch", "use of uninitialized value", args[0], 0)
				}
			}
			return 0
		},
		// onMemset
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
			}
			return 0
		},
		// onMemcpy
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					t3, t4 := granules(args[1], args[2], 3)
					var t5 uint64
					if t4 != 0 {
						t5 = meta.SignExtend(c0.RangeOr(t3, t4, 0, 8), 8)
					}
					c0.Fill(t1, t2, 0, 8, t5)
				}
			}
			return 0
		},
		// onGets
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], 17, 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
			}
			return 0
		},
		// onSSLRead
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
			}
			return 0
		},
	}
}

// stagedSslsan stages sslsan (full).
func stagedSslsan(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	g1 := rt.groups[1].global
	return []vm.HandlerFn{
		// sslOnCtxNew
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v1 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				meta.StoreField(e0, 8, 8, 1)
				v1 = meta.LoadField(g1, 64, 64)
				t1 := v1
				meta.StoreField(g1, 64, 64, (t1 + 1))
				v1 = cachedStore((t1 + 1), 64, true)
			}
			return 0
		},
		// sslOnCtxFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			var v1 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 8, 8), 8)
				t1 := v0
				if t1 != 1 {
					rt.stats.AssertFailures++
					m.Report("sslOnCtxFree", "SSL_CTX_free on dead context", t1, 1)
				}
				meta.StoreField(e0, 8, 8, 0)
				v0 = cachedStore(0, 8, true)
				v1 = meta.LoadField(g1, 64, 64)
				t2 := v1
				meta.StoreField(g1, 64, 64, (t2 - 1))
				v1 = cachedStore((t2 - 1), 64, true)
			}
			return 0
		},
		// sslOnNew
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var v0 uint64
			var v2 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[1] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 8, 8), 8)
				t1 := v0
				if t1 != 1 {
					rt.stats.AssertFailures++
					m.Report("sslOnNew", "SSL_new on dead context", t1, 1)
				}
				e1 = c0.Entry((args[0] >> 3))
				meta.StoreField(e1, 0, 8, 1)
				v2 = meta.LoadField(g1, 0, 64)
				t2 := v2
				meta.StoreField(g1, 0, 64, (t2 + 1))
				v2 = cachedStore((t2 + 1), 64, true)
			}
			return 0
		},
		// sslOnConnect
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if int64(t1) == 0 {
					rt.stats.Asserts++
					if 0 != 1 {
						rt.stats.AssertFailures++
						m.Report("sslOnConnect", "SSL_connect/accept on dead handle", 0, 1)
					}
				}
				meta.StoreField(e0, 0, 8, 2)
				v0 = cachedStore(2, 8, true)
			}
			return 0
		},
		// sslOnRead
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 2 {
					rt.stats.AssertFailures++
					m.Report("sslOnRead", "SSL_read on non-connected handle", t1, 2)
				}
			}
			return 0
		},
		// sslOnWrite
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 2 {
					rt.stats.AssertFailures++
					m.Report("sslOnWrite", "SSL_write on non-connected handle", t1, 2)
				}
			}
			return 0
		},
		// sslOnShutdown
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if int64(t1) == 0 {
					rt.stats.Asserts++
					if 0 != 1 {
						rt.stats.AssertFailures++
						m.Report("sslOnShutdown", "SSL_shutdown on dead handle", 0, 1)
					}
				}
				meta.StoreField(e0, 0, 8, 3)
				v0 = cachedStore(3, 8, true)
			}
			return 0
		},
		// sslOnFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			var v1 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if int64(t1) == 0 {
					rt.stats.Asserts++
					if 0 != 1 {
						rt.stats.AssertFailures++
						m.Report("sslOnFree", "SSL_free on dead handle (double free)", 0, 1)
					}
				}
				t2 := v0
				if int64(t2) == 2 {
					rt.stats.Asserts++
					if 0 != 1 {
						rt.stats.AssertFailures++
						m.Report("sslOnFree", "SSL_free without SSL_shutdown", 0, 1)
					}
				}
				meta.StoreField(e0, 0, 8, 0)
				v0 = cachedStore(0, 8, true)
				v1 = meta.LoadField(g1, 0, 64)
				t3 := v1
				meta.StoreField(g1, 0, 64, (t3 - 1))
				v1 = cachedStore((t3 - 1), 64, true)
			}
			return 0
		},
		// sslAtExit
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var v0 uint64
			var v1 uint64
			{
				rt.stats.Asserts++
				v0 = meta.LoadField(g1, 0, 64)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("sslAtExit", "SSL handle leak: handles not freed before exit", t1, 0)
				}
				rt.stats.Asserts++
				v1 = meta.LoadField(g1, 64, 64)
				t2 := v1
				if t2 != 0 {
					rt.stats.AssertFailures++
					m.Report("sslAtExit", "SSL_CTX leak: contexts not freed before exit", t2, 0)
				}
			}
			return 0
		},
	}
}

// stagedStrictalias stages strictalias (full).
func stagedStrictalias(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// aliasOnAccess
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if int64(t1) != 0 {
					rt.stats.Asserts++
					t2 := v0
					if t2 != args[1] {
						rt.stats.AssertFailures++
						m.Report("aliasOnAccess", "mixed-width access to same location", t2, args[1])
					}
				}
				meta.StoreField(e0, 0, 8, args[1])
				v0 = cachedStore(args[1], 8, true)
			}
			return 0
		},
	}
}

// stagedTainttrack stages tainttrack (full).
func stagedTainttrack(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// ttOnGets
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], 17, 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 64, 1)
				}
			}
			return 0
		},
		// ttOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				rt.stats.Asserts++
				if args[2] != 0 {
					rt.stats.AssertFailures++
					m.Report("ttOnLoad", "tainted value used as load address", args[2], 0)
				}
				t1, t2 := granules(args[0], args[1], 3)
				var t3 uint64
				if t2 != 0 {
					t3 = c0.RangeOr(t1, t2, 0, 64)
				}
				return t3
			}
		},
		// ttOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				rt.stats.Asserts++
				if args[3] != 0 {
					rt.stats.AssertFailures++
					m.Report("ttOnStore", "tainted value used as store address", args[3], 0)
				}
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 64, args[1])
				}
			}
			return 0
		},
	}
}

// stagedUaf stages uaf (full).
func stagedUaf(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// uafOnMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry((args[0] >> 3))
				meta.StoreField(e0, 64, 64, args[1])
			}
			return 0
		},
		// uafOnCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry((args[0] >> 3))
				meta.StoreField(e0, 64, 64, (args[1] * args[2]))
			}
			return 0
		},
		// uafOnFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 64, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 3)
					if t4 > 0 {
						if t4 == 1 {
							meta.StoreField(e0, 0, 8, 1)
						} else {
							c0.Fill(t3, t4, 0, 8, 1)
						}
					}
					meta.StoreField(e0, 64, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			return 0
		},
		// uafOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnLoad", "use after free (read)", t1, 0)
				}
			}
			return 0
		},
		// uafOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnStore", "use after free (write)", t1, 0)
				}
			}
			return 0
		},
	}
}

// stagedZlibsan stages zlibsan (full).
func stagedZlibsan(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// zOnDeflateInit
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				meta.StoreField(e0, 0, 8, 1)
			}
			return 0
		},
		// zOnInflateInit
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				meta.StoreField(e0, 0, 8, 2)
			}
			return 0
		},
		// zOnDeflate
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 1 {
					rt.stats.AssertFailures++
					m.Report("zOnDeflate", "deflate on uninitialized z_stream", t1, 1)
				}
			}
			return 0
		},
		// zOnInflate
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 2 {
					rt.stats.AssertFailures++
					m.Report("zOnInflate", "inflate on uninitialized z_stream", t1, 2)
				}
			}
			return 0
		},
		// zOnEnd
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if int64(t1) == 0 {
					rt.stats.Asserts++
					if 0 != 1 {
						rt.stats.AssertFailures++
						m.Report("zOnEnd", "deflateEnd/inflateEnd on uninitialized z_stream", 0, 1)
					}
				}
				meta.StoreField(e0, 0, 8, 0)
				v0 = cachedStore(0, 8, true)
			}
			return 0
		},
	}
}

// stagedEraserDsonly stages eraser (dsonly).
func stagedEraserDsonly(rt *Runtime) []vm.HandlerFn {
	inlid := rt.internTable("lid")
	c1 := rt.groups[1].c.(*meta.ArrayMap)
	c0 := rt.groups[0].c.(*meta.ArrayMap)
	mu2 := &rt.groups[2].mu
	mu3 := &rt.groups[3].mu
	mu4 := &rt.groups[4].mu
	c3 := rt.groups[3].c.(*meta.ChunkMap)
	c4 := rt.groups[4].c.(*meta.ChunkMap)
	c2 := rt.groups[2].c.(*meta.ChunkMap)
	scratch2_0 := make([]uint64, 4)
	scratch3_0 := make([]uint64, 4)
	return []vm.HandlerFn{
		// eraserOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1 := internValue(inlid, 256, args[0])
				t2 := c1.Entry(args[1])
				meta.BitAdd(t2[0:4], t1%256)
				t4 := internValue(inlid, 256, args[0])
				t5 := c0.Entry(args[1])
				meta.BitAdd(t5[0:4], t4%256)
			}
			return 0
		},
		// eraserOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1 := internValue(inlid, 256, args[0])
				t2 := c1.Entry(args[1])
				meta.BitRemove(t2[0:4], t1%256)
				t4 := internValue(inlid, 256, args[0])
				t5 := c0.Entry(args[1])
				meta.BitRemove(t5[0:4], t4%256)
			}
			return 0
		},
		// eraserOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu2.Lock()
			mu3.Lock()
			mu4.Lock()
			{
				t1 := c3.Entry((args[0] >> 3))
				t2 := b2u(meta.BitFind(t1[0:1], args[1]%64))
				t5 := false
				if !(t2 != 0) {
					t4 := c4.Entry((args[0] >> 3))
					t3 := meta.SignExtend(meta.LoadField(t4, 0, 8), 8)
					t5 = int64(t3) != 0
				}
				if t5 {
					t7 := c4.Entry((args[0] >> 3))
					t6 := meta.SignExtend(meta.LoadField(t7, 0, 8), 8)
					if int64(t6) == 1 {
						t8 := c4.Entry((args[0] >> 3))
						meta.StoreField(t8, 0, 8, 2)
					}
					t9 := c3.Entry((args[0] >> 3))
					meta.BitAdd(t9[0:1], args[1]%64)
				}
				t12 := c4.Entry((args[0] >> 3))
				t11 := meta.SignExtend(meta.LoadField(t12, 0, 8), 8)
				if int64(t11) > 1 {
					t13 := c2.Entry((args[0] >> 3))
					t14 := c1.Entry(args[1])
					meta.BitAnd(scratch2_0, t13[0:4], t14[0:4])
					t15 := c2.Entry((args[0] >> 3))
					meta.BitCopy(t15[0:4], scratch2_0)
					t17 := c4.Entry((args[0] >> 3))
					t16 := meta.SignExtend(meta.LoadField(t17, 0, 8), 8)
					if int64(t16) == 3 {
						rt.stats.Asserts++
						t18 := c2.Entry((args[0] >> 3))
						t19 := b2u(meta.BitEmpty(t18[0:4]))
						if t19 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnLoad", "data race: unprotected read", t19, 0)
						}
					}
				}
			}
			mu4.Unlock()
			mu3.Unlock()
			mu2.Unlock()
			return 0
		},
		// eraserOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu2.Lock()
			mu3.Lock()
			mu4.Lock()
			{
				t1 := c3.Entry((args[0] >> 3))
				t2 := b2u(meta.BitFind(t1[0:1], args[1]%64))
				if !(t2 != 0) {
					t3 := c3.Entry((args[0] >> 3))
					meta.BitAdd(t3[0:1], args[1]%64)
					t6 := c4.Entry((args[0] >> 3))
					t5 := meta.SignExtend(meta.LoadField(t6, 0, 8), 8)
					if int64(t5) == 2 {
						t7 := c4.Entry((args[0] >> 3))
						meta.StoreField(t7, 0, 8, 3)
					}
					t9 := c4.Entry((args[0] >> 3))
					t8 := meta.SignExtend(meta.LoadField(t9, 0, 8), 8)
					if int64(t8) == 1 {
						t10 := c4.Entry((args[0] >> 3))
						meta.StoreField(t10, 0, 8, 3)
					}
					t12 := c4.Entry((args[0] >> 3))
					t11 := meta.SignExtend(meta.LoadField(t12, 0, 8), 8)
					if int64(t11) == 0 {
						t13 := c4.Entry((args[0] >> 3))
						meta.StoreField(t13, 0, 8, 1)
					}
				} else {
					t15 := c4.Entry((args[0] >> 3))
					t14 := meta.SignExtend(meta.LoadField(t15, 0, 8), 8)
					if int64(t14) == 2 {
						t16 := c4.Entry((args[0] >> 3))
						meta.StoreField(t16, 0, 8, 3)
					}
				}
				t18 := c4.Entry((args[0] >> 3))
				t17 := meta.SignExtend(meta.LoadField(t18, 0, 8), 8)
				if int64(t17) > 1 {
					t19 := c2.Entry((args[0] >> 3))
					t20 := c0.Entry(args[1])
					meta.BitAnd(scratch3_0, t19[0:4], t20[0:4])
					t21 := c2.Entry((args[0] >> 3))
					meta.BitCopy(t21[0:4], scratch3_0)
					t23 := c4.Entry((args[0] >> 3))
					t22 := meta.SignExtend(meta.LoadField(t23, 0, 8), 8)
					if int64(t22) == 3 {
						rt.stats.Asserts++
						t24 := c2.Entry((args[0] >> 3))
						t25 := b2u(meta.BitEmpty(t24[0:4]))
						if t25 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnStore", "data race: unprotected write", t25, 0)
						}
					}
				}
			}
			mu4.Unlock()
			mu3.Unlock()
			mu2.Unlock()
			return 0
		},
	}
}

// stagedEraserNocse stages eraser (nocse).
func stagedEraserNocse(rt *Runtime) []vm.HandlerFn {
	inlid := rt.internTable("lid")
	c0 := rt.groups[0].c.(*meta.ArrayMap)
	mu1 := &rt.groups[1].mu
	c1 := rt.groups[1].c.(*meta.ChunkMap)
	scratch2_0 := make([]uint64, 4)
	scratch3_0 := make([]uint64, 4)
	return []vm.HandlerFn{
		// eraserOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1 := internValue(inlid, 256, args[0])
				t2 := c0.Entry(args[1])
				meta.BitAdd(t2[4:8], t1%256)
				t4 := internValue(inlid, 256, args[0])
				t5 := c0.Entry(args[1])
				meta.BitAdd(t5[0:4], t4%256)
			}
			return 0
		},
		// eraserOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1 := internValue(inlid, 256, args[0])
				t2 := c0.Entry(args[1])
				meta.BitRemove(t2[4:8], t1%256)
				t4 := internValue(inlid, 256, args[0])
				t5 := c0.Entry(args[1])
				meta.BitRemove(t5[0:4], t4%256)
			}
			return 0
		},
		// eraserOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu1.Lock()
			{
				t1 := c1.Entry((args[0] >> 3))
				t2 := b2u(meta.BitFind(t1[4:5], args[1]%64))
				t5 := false
				if !(t2 != 0) {
					t4 := c1.Entry((args[0] >> 3))
					t3 := meta.SignExtend(meta.LoadField(t4, 320, 8), 8)
					t5 = int64(t3) != 0
				}
				if t5 {
					t7 := c1.Entry((args[0] >> 3))
					t6 := meta.SignExtend(meta.LoadField(t7, 320, 8), 8)
					if int64(t6) == 1 {
						t8 := c1.Entry((args[0] >> 3))
						meta.StoreField(t8, 320, 8, 2)
					}
					t9 := c1.Entry((args[0] >> 3))
					meta.BitAdd(t9[4:5], args[1]%64)
				}
				t12 := c1.Entry((args[0] >> 3))
				t11 := meta.SignExtend(meta.LoadField(t12, 320, 8), 8)
				if int64(t11) > 1 {
					t13 := c1.Entry((args[0] >> 3))
					t14 := c0.Entry(args[1])
					meta.BitAnd(scratch2_0, t13[0:4], t14[4:8])
					t15 := c1.Entry((args[0] >> 3))
					meta.BitCopy(t15[0:4], scratch2_0)
					t17 := c1.Entry((args[0] >> 3))
					t16 := meta.SignExtend(meta.LoadField(t17, 320, 8), 8)
					if int64(t16) == 3 {
						rt.stats.Asserts++
						t18 := c1.Entry((args[0] >> 3))
						t19 := b2u(meta.BitEmpty(t18[0:4]))
						if t19 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnLoad", "data race: unprotected read", t19, 0)
						}
					}
				}
			}
			mu1.Unlock()
			return 0
		},
		// eraserOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu1.Lock()
			{
				t1 := c1.Entry((args[0] >> 3))
				t2 := b2u(meta.BitFind(t1[4:5], args[1]%64))
				if !(t2 != 0) {
					t3 := c1.Entry((args[0] >> 3))
					meta.BitAdd(t3[4:5], args[1]%64)
					t6 := c1.Entry((args[0] >> 3))
					t5 := meta.SignExtend(meta.LoadField(t6, 320, 8), 8)
					if int64(t5) == 2 {
						t7 := c1.Entry((args[0] >> 3))
						meta.StoreField(t7, 320, 8, 3)
					}
					t9 := c1.Entry((args[0] >> 3))
					t8 := meta.SignExtend(meta.LoadField(t9, 320, 8), 8)
					if int64(t8) == 1 {
						t10 := c1.Entry((args[0] >> 3))
						meta.StoreField(t10, 320, 8, 3)
					}
					t12 := c1.Entry((args[0] >> 3))
					t11 := meta.SignExtend(meta.LoadField(t12, 320, 8), 8)
					if int64(t11) == 0 {
						t13 := c1.Entry((args[0] >> 3))
						meta.StoreField(t13, 320, 8, 1)
					}
				} else {
					t15 := c1.Entry((args[0] >> 3))
					t14 := meta.SignExtend(meta.LoadField(t15, 320, 8), 8)
					if int64(t14) == 2 {
						t16 := c1.Entry((args[0] >> 3))
						meta.StoreField(t16, 320, 8, 3)
					}
				}
				t18 := c1.Entry((args[0] >> 3))
				t17 := meta.SignExtend(meta.LoadField(t18, 320, 8), 8)
				if int64(t17) > 1 {
					t19 := c1.Entry((args[0] >> 3))
					t20 := c0.Entry(args[1])
					meta.BitAnd(scratch3_0, t19[0:4], t20[0:4])
					t21 := c1.Entry((args[0] >> 3))
					meta.BitCopy(t21[0:4], scratch3_0)
					t23 := c1.Entry((args[0] >> 3))
					t22 := meta.SignExtend(meta.LoadField(t23, 320, 8), 8)
					if int64(t22) == 3 {
						rt.stats.Asserts++
						t24 := c1.Entry((args[0] >> 3))
						t25 := b2u(meta.BitEmpty(t24[0:4]))
						if t25 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnStore", "data race: unprotected write", t25, 0)
						}
					}
				}
			}
			mu1.Unlock()
			return 0
		},
	}
}

// stagedEraserNocoalesce stages eraser (nocoalesce).
func stagedEraserNocoalesce(rt *Runtime) []vm.HandlerFn {
	inlid := rt.internTable("lid")
	c1 := rt.groups[1].c.(*meta.ArrayMap)
	c0 := rt.groups[0].c.(*meta.ArrayMap)
	mu2 := &rt.groups[2].mu
	mu3 := &rt.groups[3].mu
	mu4 := &rt.groups[4].mu
	c3 := rt.groups[3].c.(*meta.ChunkMap)
	c4 := rt.groups[4].c.(*meta.ChunkMap)
	c2 := rt.groups[2].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// eraserOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c1.Entry(args[1])
				meta.BitAdd(e0[0:4], t1%256)
				t3 := internValue(inlid, 256, args[0])
				e1 = c0.Entry(args[1])
				meta.BitAdd(e1[0:4], t3%256)
			}
			return 0
		},
		// eraserOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c1.Entry(args[1])
				meta.BitRemove(e0[0:4], t1%256)
				t3 := internValue(inlid, 256, args[0])
				e1 = c0.Entry(args[1])
				meta.BitRemove(e1[0:4], t3%256)
			}
			return 0
		},
		// eraserOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var e2 []uint64
			var e3 []uint64
			var v0 uint64
			var v0ok bool
			mu2.Lock()
			mu3.Lock()
			mu4.Lock()
			{
				e0 = c3.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[0:1], args[1]%64))
				t3 := false
				if !(t1 != 0) {
					e1 = c4.Entry((args[0] >> 3))
					v0 = meta.SignExtend(meta.LoadField(e1, 0, 8), 8)
					v0ok = true
					t2 := v0
					t3 = int64(t2) != 0
				}
				if t3 {
					if !v0ok {
						if e1 == nil {
							e1 = c4.Entry((args[0] >> 3))
						}
						v0 = meta.SignExtend(meta.LoadField(e1, 0, 8), 8)
						v0ok = true
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e1, 0, 8, 2)
						v0 = cachedStore(2, 8, true)
						v0ok = true
					}
					meta.BitAdd(e0[0:1], args[1]%64)
				}
				if !v0ok {
					if e1 == nil {
						e1 = c4.Entry((args[0] >> 3))
					}
					v0 = meta.SignExtend(meta.LoadField(e1, 0, 8), 8)
					v0ok = true
				}
				t6 := v0
				if int64(t6) > 1 {
					e3 = c1.Entry(args[1])
					e2 = c2.Entry((args[0] >> 3))
					meta.BitAnd(e2[0:4], e2[0:4], e3[0:4])
					t7 := v0
					if int64(t7) == 3 {
						rt.stats.Asserts++
						t8 := b2u(meta.BitEmpty(e2[0:4]))
						if t8 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnLoad", "data race: unprotected read", t8, 0)
						}
					}
				}
			}
			mu4.Unlock()
			mu3.Unlock()
			mu2.Unlock()
			return 0
		},
		// eraserOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var e2 []uint64
			var e3 []uint64
			var v0 uint64
			mu2.Lock()
			mu3.Lock()
			mu4.Lock()
			{
				e0 = c3.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[0:1], args[1]%64))
				if !(t1 != 0) {
					meta.BitAdd(e0[0:1], args[1]%64)
					e1 = c4.Entry((args[0] >> 3))
					v0 = meta.SignExtend(meta.LoadField(e1, 0, 8), 8)
					t3 := v0
					if int64(t3) == 2 {
						meta.StoreField(e1, 0, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e1, 0, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t5 := v0
					if int64(t5) == 0 {
						meta.StoreField(e1, 0, 8, 1)
						v0 = cachedStore(1, 8, true)
					}
				} else {
					e1 = c4.Entry((args[0] >> 3))
					v0 = meta.SignExtend(meta.LoadField(e1, 0, 8), 8)
					t6 := v0
					if int64(t6) == 2 {
						meta.StoreField(e1, 0, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
				}
				t7 := v0
				if int64(t7) > 1 {
					e3 = c0.Entry(args[1])
					e2 = c2.Entry((args[0] >> 3))
					meta.BitAnd(e2[0:4], e2[0:4], e3[0:4])
					t8 := v0
					if int64(t8) == 3 {
						rt.stats.Asserts++
						t9 := b2u(meta.BitEmpty(e2[0:4]))
						if t9 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnStore", "data race: unprotected write", t9, 0)
						}
					}
				}
			}
			mu4.Unlock()
			mu3.Unlock()
			mu2.Unlock()
			return 0
		},
	}
}

// stagedEraserNaive stages eraser (naive).
func stagedEraserNaive(rt *Runtime) []vm.HandlerFn {
	c1 := rt.groups[1].c.(*meta.HashMap)
	inlid := rt.internTable("lid")
	c0 := rt.groups[0].c.(*meta.HashMap)
	mu2 := &rt.groups[2].mu
	mu3 := &rt.groups[3].mu
	mu4 := &rt.groups[4].mu
	c3 := rt.groups[3].c.(*meta.HashMap)
	c4 := rt.groups[4].c.(*meta.HashMap)
	c2 := rt.groups[2].c.(*meta.HashMap)
	return []vm.HandlerFn{
		// eraserOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1 := c1.Entry(args[1])
				t2 := rt.getTree(t1, 0, false)
				t3 := internValue(inlid, 256, args[0])
				t2.Add(t3)
				t5 := c0.Entry(args[1])
				t6 := rt.getTree(t5, 0, false)
				t7 := internValue(inlid, 256, args[0])
				t6.Add(t7)
			}
			return 0
		},
		// eraserOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1 := c1.Entry(args[1])
				t2 := rt.getTree(t1, 0, false)
				t3 := internValue(inlid, 256, args[0])
				t2.Remove(t3)
				t5 := c0.Entry(args[1])
				t6 := rt.getTree(t5, 0, false)
				t7 := internValue(inlid, 256, args[0])
				t6.Remove(t7)
			}
			return 0
		},
		// eraserOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu2.Lock()
			mu3.Lock()
			mu4.Lock()
			{
				t1 := c3.Entry((args[0] >> 3))
				t2 := rt.getTree(t1, 0, false)
				t3 := b2u(t2.Find(args[1]))
				t6 := false
				if !(t3 != 0) {
					t5 := c4.Entry((args[0] >> 3))
					t4 := meta.SignExtend(meta.LoadField(t5, 0, 8), 8)
					t6 = int64(t4) != 0
				}
				if t6 {
					t8 := c4.Entry((args[0] >> 3))
					t7 := meta.SignExtend(meta.LoadField(t8, 0, 8), 8)
					if int64(t7) == 1 {
						t9 := c4.Entry((args[0] >> 3))
						meta.StoreField(t9, 0, 8, 2)
					}
					t10 := c3.Entry((args[0] >> 3))
					t11 := rt.getTree(t10, 0, false)
					t11.Add(args[1])
				}
				t14 := c4.Entry((args[0] >> 3))
				t13 := meta.SignExtend(meta.LoadField(t14, 0, 8), 8)
				if int64(t13) > 1 {
					t15 := c2.Entry((args[0] >> 3))
					t16 := rt.getTree(t15, 0, true)
					t17 := c1.Entry(args[1])
					t18 := rt.getTree(t17, 0, false)
					t19 := meta.Intersect(t16, t18)
					t20 := c2.Entry((args[0] >> 3))
					rt.setTree(t20, 0, t19)
					t22 := c4.Entry((args[0] >> 3))
					t21 := meta.SignExtend(meta.LoadField(t22, 0, 8), 8)
					if int64(t21) == 3 {
						rt.stats.Asserts++
						t23 := c2.Entry((args[0] >> 3))
						t24 := rt.getTree(t23, 0, true)
						t25 := b2u(t24.Empty())
						if t25 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnLoad", "data race: unprotected read", t25, 0)
						}
					}
				}
			}
			mu4.Unlock()
			mu3.Unlock()
			mu2.Unlock()
			return 0
		},
		// eraserOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu2.Lock()
			mu3.Lock()
			mu4.Lock()
			{
				t1 := c3.Entry((args[0] >> 3))
				t2 := rt.getTree(t1, 0, false)
				t3 := b2u(t2.Find(args[1]))
				if !(t3 != 0) {
					t4 := c3.Entry((args[0] >> 3))
					t5 := rt.getTree(t4, 0, false)
					t5.Add(args[1])
					t8 := c4.Entry((args[0] >> 3))
					t7 := meta.SignExtend(meta.LoadField(t8, 0, 8), 8)
					if int64(t7) == 2 {
						t9 := c4.Entry((args[0] >> 3))
						meta.StoreField(t9, 0, 8, 3)
					}
					t11 := c4.Entry((args[0] >> 3))
					t10 := meta.SignExtend(meta.LoadField(t11, 0, 8), 8)
					if int64(t10) == 1 {
						t12 := c4.Entry((args[0] >> 3))
						meta.StoreField(t12, 0, 8, 3)
					}
					t14 := c4.Entry((args[0] >> 3))
					t13 := meta.SignExtend(meta.LoadField(t14, 0, 8), 8)
					if int64(t13) == 0 {
						t15 := c4.Entry((args[0] >> 3))
						meta.StoreField(t15, 0, 8, 1)
					}
				} else {
					t17 := c4.Entry((args[0] >> 3))
					t16 := meta.SignExtend(meta.LoadField(t17, 0, 8), 8)
					if int64(t16) == 2 {
						t18 := c4.Entry((args[0] >> 3))
						meta.StoreField(t18, 0, 8, 3)
					}
				}
				t20 := c4.Entry((args[0] >> 3))
				t19 := meta.SignExtend(meta.LoadField(t20, 0, 8), 8)
				if int64(t19) > 1 {
					t21 := c2.Entry((args[0] >> 3))
					t22 := rt.getTree(t21, 0, true)
					t23 := c0.Entry(args[1])
					t24 := rt.getTree(t23, 0, false)
					t25 := meta.Intersect(t22, t24)
					t26 := c2.Entry((args[0] >> 3))
					rt.setTree(t26, 0, t25)
					t28 := c4.Entry((args[0] >> 3))
					t27 := meta.SignExtend(meta.LoadField(t28, 0, 8), 8)
					if int64(t27) == 3 {
						rt.stats.Asserts++
						t29 := c2.Entry((args[0] >> 3))
						t30 := rt.getTree(t29, 0, true)
						t31 := b2u(t30.Empty())
						if t31 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnStore", "data race: unprotected write", t31, 0)
						}
					}
				}
			}
			mu4.Unlock()
			mu3.Unlock()
			mu2.Unlock()
			return 0
		},
	}
}

// stagedUafGran1 stages uaf (gran1).
func stagedUafGran1(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// uafOnMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], args[1], 0)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry(args[0])
				meta.StoreField(e0, 64, 64, args[1])
			}
			return 0
		},
		// uafOnCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 0)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry(args[0])
				meta.StoreField(e0, 64, 64, (args[1] * args[2]))
			}
			return 0
		},
		// uafOnFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry(args[0])
				v0 = meta.LoadField(e0, 64, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 0)
					if t4 > 0 {
						if t4 == 1 {
							meta.StoreField(e0, 0, 8, 1)
						} else {
							c0.Fill(t3, t4, 0, 8, 1)
						}
					}
					meta.StoreField(e0, 64, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			return 0
		},
		// uafOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry(args[0])
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnLoad", "use after free (read)", t1, 0)
				}
			}
			return 0
		},
		// uafOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry(args[0])
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnStore", "use after free (write)", t1, 0)
				}
			}
			return 0
		},
	}
}

// stagedUafGran2 stages uaf (gran2).
func stagedUafGran2(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// uafOnMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], args[1], 1)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry((args[0] >> 1))
				meta.StoreField(e0, 64, 64, args[1])
			}
			return 0
		},
		// uafOnCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 1)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry((args[0] >> 1))
				meta.StoreField(e0, 64, 64, (args[1] * args[2]))
			}
			return 0
		},
		// uafOnFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 1))
				v0 = meta.LoadField(e0, 64, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 1)
					if t4 > 0 {
						if t4 == 1 {
							meta.StoreField(e0, 0, 8, 1)
						} else {
							c0.Fill(t3, t4, 0, 8, 1)
						}
					}
					meta.StoreField(e0, 64, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			return 0
		},
		// uafOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 1))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnLoad", "use after free (read)", t1, 0)
				}
			}
			return 0
		},
		// uafOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 1))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnStore", "use after free (write)", t1, 0)
				}
			}
			return 0
		},
	}
}

// stagedUafGran4 stages uaf (gran4).
func stagedUafGran4(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// uafOnMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], args[1], 2)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry((args[0] >> 2))
				meta.StoreField(e0, 64, 64, args[1])
			}
			return 0
		},
		// uafOnCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 2)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c0.Entry((args[0] >> 2))
				meta.StoreField(e0, 64, 64, (args[1] * args[2]))
			}
			return 0
		},
		// uafOnFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c0.Entry((args[0] >> 2))
				v0 = meta.LoadField(e0, 64, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 2)
					if t4 > 0 {
						if t4 == 1 {
							meta.StoreField(e0, 0, 8, 1)
						} else {
							c0.Fill(t3, t4, 0, 8, 1)
						}
					}
					meta.StoreField(e0, 64, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			return 0
		},
		// uafOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 2))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnLoad", "use after free (read)", t1, 0)
				}
			}
			return 0
		},
		// uafOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				rt.stats.Asserts++
				e0 = c0.Entry((args[0] >> 2))
				v0 = meta.SignExtend(meta.LoadField(e0, 0, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnStore", "use after free (write)", t1, 0)
				}
			}
			return 0
		},
	}
}

// stagedCombined stages eraser+fasttrack+uaf+tainttrack (full).
func stagedCombined(rt *Runtime) []vm.HandlerFn {
	buf6_0 := make([]uint64, 2)
	ext2 := rt.externals[2]
	buf7_0 := make([]uint64, 2)
	ext3 := rt.externals[3]
	mu1 := &rt.groups[1].mu
	c1 := rt.groups[1].c.(*meta.ChunkMap)
	inlid := rt.internTable("lid")
	c0 := rt.groups[0].c.(*meta.ArrayMap)
	buf18_0 := make([]uint64, 2)
	ext0 := rt.externals[0]
	buf19_0 := make([]uint64, 2)
	ext1 := rt.externals[1]
	buf20_0 := make([]uint64, 1)
	ext4 := rt.externals[4]
	buf20_1 := make([]uint64, 2)
	ext5 := rt.externals[5]
	buf20_2 := make([]uint64, 1)
	buf21_0 := make([]uint64, 1)
	buf21_1 := make([]uint64, 2)
	buf21_2 := make([]uint64, 2)
	buf21_3 := make([]uint64, 1)
	return []vm.HandlerFn{
		// eraserOnLock
		nil,
		// eraserOnUnlock
		nil,
		// eraserOnLoad
		nil,
		// eraserOnStore
		nil,
		// ftOnLock
		nil,
		// ftOnUnlock
		nil,
		// ftOnSpawn
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf6_0[0] = args[1]
				buf6_0[1] = args[0]
				t1 := ext2(m, buf6_0)
				_ = t1
			}
			return 0
		},
		// ftOnJoin
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf7_0[0] = args[1]
				buf7_0[1] = args[0]
				t1 := ext3(m, buf7_0)
				_ = t1
			}
			return 0
		},
		// ftOnLoad
		nil,
		// ftOnStore
		nil,
		// uafOnMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			mu1.Lock()
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c1.Fill(t1, t2, 512, 8, 0)
				}
				e0 = c1.Entry((args[0] >> 3))
				meta.StoreField(e0, 576, 64, args[1])
			}
			mu1.Unlock()
			return 0
		},
		// uafOnCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			mu1.Lock()
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 3)
				if t2 > 0 {
					c1.Fill(t1, t2, 512, 8, 0)
				}
				e0 = c1.Entry((args[0] >> 3))
				meta.StoreField(e0, 576, 64, (args[1] * args[2]))
			}
			mu1.Unlock()
			return 0
		},
		// uafOnFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 576, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 3)
					if t4 > 0 {
						if t4 == 1 {
							meta.StoreField(e0, 512, 8, 1)
						} else {
							c1.Fill(t3, t4, 512, 8, 1)
						}
					}
					meta.StoreField(e0, 576, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			mu1.Unlock()
			return 0
		},
		// uafOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			mu1.Lock()
			{
				rt.stats.Asserts++
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 512, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnLoad", "use after free (read)", t1, 0)
				}
			}
			mu1.Unlock()
			return 0
		},
		// uafOnStore
		nil,
		// ttOnGets
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu1.Lock()
			{
				t1, t2 := granules(args[0], 17, 3)
				if t2 > 0 {
					c1.Fill(t1, t2, 640, 64, 1)
				}
			}
			mu1.Unlock()
			return 0
		},
		// ttOnLoad
		nil,
		// ttOnStore
		nil,
		// fused(eraserOnLock+ftOnLock)
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c0.Entry(args[1])
				meta.BitAdd(e0[4:8], t1%256)
				t3 := internValue(inlid, 256, args[0])
				meta.BitAdd(e0[0:4], t3%256)
			}
			{
				buf18_0[0] = args[0]
				buf18_0[1] = args[1]
				t5 := ext0(m, buf18_0)
				_ = t5
			}
			return 0
		},
		// fused(eraserOnUnlock+ftOnUnlock)
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c0.Entry(args[1])
				meta.BitRemove(e0[4:8], t1%256)
				t3 := internValue(inlid, 256, args[0])
				meta.BitRemove(e0[0:4], t3%256)
			}
			{
				buf19_0[0] = args[0]
				buf19_0[1] = args[1]
				t5 := ext1(m, buf19_0)
				_ = t5
			}
			return 0
		},
		// fused(eraserOnLoad+ftOnLoad+ttOnLoad)
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var v0 uint64
			var v0ok bool
			var v1 uint64
			var v2 uint64
			var ret uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[4:5], args[1]%64))
				t3 := false
				if !(t1 != 0) {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					v0ok = true
					t2 := v0
					t3 = int64(t2) != 0
				}
				if t3 {
					if !v0ok {
						v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
						v0ok = true
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e0, 320, 8, 2)
						v0 = cachedStore(2, 8, true)
						v0ok = true
					}
					meta.BitAdd(e0[4:5], args[1]%64)
				}
				if !v0ok {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					v0ok = true
				}
				t6 := v0
				if int64(t6) > 1 {
					e1 = c0.Entry(args[1])
					meta.BitAnd(e0[0:4], e0[0:4], e1[4:8])
					t7 := v0
					if int64(t7) == 3 {
						rt.stats.Asserts++
						t8 := b2u(meta.BitEmpty(e0[0:4]))
						if t8 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnLoad", "data race: unprotected read", t8, 0)
						}
					}
				}
			}
			{
				v1 = meta.LoadField(e0, 448, 64)
				t9 := v1
				buf20_0[0] = args[1]
				t10 := ext4(m, buf20_0)
				if int64(t9) != int64(t10) {
					rt.stats.Asserts++
					v2 = meta.LoadField(e0, 384, 64)
					t11 := v2
					buf20_1[0] = t11
					buf20_1[1] = args[1]
					t12 := ext5(m, buf20_1)
					if t12 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnLoad", "write-read race", t12, 1)
					}
					buf20_2[0] = args[1]
					t13 := ext4(m, buf20_2)
					meta.StoreField(e0, 448, 64, t13)
					v1 = cachedStore(t13, 64, true)
				}
			}
			{
				rt.stats.Asserts++
				if args[3] != 0 {
					rt.stats.AssertFailures++
					m.Report("ttOnLoad", "tainted value used as load address", args[3], 0)
				}
				t14, t15 := granules(args[0], args[2], 3)
				var t16 uint64
				if t15 == 1 {
					t16 = meta.LoadField(e0, 640, 64)
				} else if t15 != 0 {
					t16 = c1.RangeOr(t14, t15, 640, 64)
				}
				ret = t16
				goto part2
			}
		part2:
			mu1.Unlock()
			return ret
		},
		// fused(eraserOnStore+ftOnStore)
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var v0 uint64
			var v1 uint64
			var v2 uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[4:5], args[1]%64))
				if !(t1 != 0) {
					meta.BitAdd(e0[4:5], args[1]%64)
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					t3 := v0
					if int64(t3) == 2 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t5 := v0
					if int64(t5) == 0 {
						meta.StoreField(e0, 320, 8, 1)
						v0 = cachedStore(1, 8, true)
					}
				} else {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					t6 := v0
					if int64(t6) == 2 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
				}
				t7 := v0
				if int64(t7) > 1 {
					e1 = c0.Entry(args[1])
					meta.BitAnd(e0[0:4], e0[0:4], e1[0:4])
					t8 := v0
					if int64(t8) == 3 {
						rt.stats.Asserts++
						t9 := b2u(meta.BitEmpty(e0[0:4]))
						if t9 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnStore", "data race: unprotected write", t9, 0)
						}
					}
				}
			}
			{
				v1 = meta.LoadField(e0, 384, 64)
				t10 := v1
				buf21_0[0] = args[1]
				t11 := ext4(m, buf21_0)
				if int64(t10) != int64(t11) {
					rt.stats.Asserts++
					t12 := v1
					buf21_1[0] = t12
					buf21_1[1] = args[1]
					t13 := ext5(m, buf21_1)
					if t13 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnStore", "write-write race", t13, 1)
					}
					rt.stats.Asserts++
					v2 = meta.LoadField(e0, 448, 64)
					t14 := v2
					buf21_2[0] = t14
					buf21_2[1] = args[1]
					t15 := ext5(m, buf21_2)
					if t15 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnStore", "read-write race", t15, 1)
					}
					buf21_3[0] = args[1]
					t16 := ext4(m, buf21_3)
					meta.StoreField(e0, 384, 64, t16)
					v1 = cachedStore(t16, 64, true)
				}
			}
			mu1.Unlock()
			return 0
		},
		// fused(uafOnStore+ttOnStore)
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			mu1.Lock()
			{
				rt.stats.Asserts++
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 512, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnStore", "use after free (write)", t1, 0)
				}
			}
			{
				rt.stats.Asserts++
				if args[3] != 0 {
					rt.stats.AssertFailures++
					m.Report("ttOnStore", "tainted value used as store address", args[3], 0)
				}
				t2, t3 := granules(args[0], args[2], 3)
				if t3 > 0 {
					if t3 == 1 {
						meta.StoreField(e0, 640, 64, args[1])
					} else {
						c1.Fill(t2, t3, 640, 64, args[1])
					}
				}
			}
			mu1.Unlock()
			return 0
		},
	}
}

// stagedCombinedNofuse stages eraser+fasttrack+uaf+tainttrack (nofuse).
func stagedCombinedNofuse(rt *Runtime) []vm.HandlerFn {
	inlid := rt.internTable("lid")
	c0 := rt.groups[0].c.(*meta.ArrayMap)
	mu1 := &rt.groups[1].mu
	c1 := rt.groups[1].c.(*meta.ChunkMap)
	buf4_0 := make([]uint64, 2)
	ext0 := rt.externals[0]
	buf5_0 := make([]uint64, 2)
	ext1 := rt.externals[1]
	buf6_0 := make([]uint64, 2)
	ext2 := rt.externals[2]
	buf7_0 := make([]uint64, 2)
	ext3 := rt.externals[3]
	buf8_0 := make([]uint64, 1)
	ext4 := rt.externals[4]
	buf8_1 := make([]uint64, 2)
	ext5 := rt.externals[5]
	buf8_2 := make([]uint64, 1)
	buf9_0 := make([]uint64, 1)
	buf9_1 := make([]uint64, 2)
	buf9_2 := make([]uint64, 2)
	buf9_3 := make([]uint64, 1)
	return []vm.HandlerFn{
		// eraserOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c0.Entry(args[1])
				meta.BitAdd(e0[4:8], t1%256)
				t3 := internValue(inlid, 256, args[0])
				meta.BitAdd(e0[0:4], t3%256)
			}
			return 0
		},
		// eraserOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1 := internValue(inlid, 256, args[0])
				e0 = c0.Entry(args[1])
				meta.BitRemove(e0[4:8], t1%256)
				t3 := internValue(inlid, 256, args[0])
				meta.BitRemove(e0[0:4], t3%256)
			}
			return 0
		},
		// eraserOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var v0 uint64
			var v0ok bool
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[4:5], args[1]%64))
				t3 := false
				if !(t1 != 0) {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					v0ok = true
					t2 := v0
					t3 = int64(t2) != 0
				}
				if t3 {
					if !v0ok {
						v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
						v0ok = true
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e0, 320, 8, 2)
						v0 = cachedStore(2, 8, true)
						v0ok = true
					}
					meta.BitAdd(e0[4:5], args[1]%64)
				}
				if !v0ok {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					v0ok = true
				}
				t6 := v0
				if int64(t6) > 1 {
					e1 = c0.Entry(args[1])
					meta.BitAnd(e0[0:4], e0[0:4], e1[4:8])
					t7 := v0
					if int64(t7) == 3 {
						rt.stats.Asserts++
						t8 := b2u(meta.BitEmpty(e0[0:4]))
						if t8 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnLoad", "data race: unprotected read", t8, 0)
						}
					}
				}
			}
			mu1.Unlock()
			return 0
		},
		// eraserOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var e1 []uint64
			var v0 uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				t1 := b2u(meta.BitFind(e0[4:5], args[1]%64))
				if !(t1 != 0) {
					meta.BitAdd(e0[4:5], args[1]%64)
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					t3 := v0
					if int64(t3) == 2 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t4 := v0
					if int64(t4) == 1 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
					t5 := v0
					if int64(t5) == 0 {
						meta.StoreField(e0, 320, 8, 1)
						v0 = cachedStore(1, 8, true)
					}
				} else {
					v0 = meta.SignExtend(meta.LoadField(e0, 320, 8), 8)
					t6 := v0
					if int64(t6) == 2 {
						meta.StoreField(e0, 320, 8, 3)
						v0 = cachedStore(3, 8, true)
					}
				}
				t7 := v0
				if int64(t7) > 1 {
					e1 = c0.Entry(args[1])
					meta.BitAnd(e0[0:4], e0[0:4], e1[0:4])
					t8 := v0
					if int64(t8) == 3 {
						rt.stats.Asserts++
						t9 := b2u(meta.BitEmpty(e0[0:4]))
						if t9 != 0 {
							rt.stats.AssertFailures++
							m.Report("eraserOnStore", "data race: unprotected write", t9, 0)
						}
					}
				}
			}
			mu1.Unlock()
			return 0
		},
		// ftOnLock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf4_0[0] = args[0]
				buf4_0[1] = args[1]
				t1 := ext0(m, buf4_0)
				_ = t1
			}
			return 0
		},
		// ftOnUnlock
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf5_0[0] = args[0]
				buf5_0[1] = args[1]
				t1 := ext1(m, buf5_0)
				_ = t1
			}
			return 0
		},
		// ftOnSpawn
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf6_0[0] = args[1]
				buf6_0[1] = args[0]
				t1 := ext2(m, buf6_0)
				_ = t1
			}
			return 0
		},
		// ftOnJoin
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				buf7_0[0] = args[1]
				buf7_0[1] = args[0]
				t1 := ext3(m, buf7_0)
				_ = t1
			}
			return 0
		},
		// ftOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			var v1 uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 448, 64)
				t1 := v0
				buf8_0[0] = args[1]
				t2 := ext4(m, buf8_0)
				if int64(t1) != int64(t2) {
					rt.stats.Asserts++
					v1 = meta.LoadField(e0, 384, 64)
					t3 := v1
					buf8_1[0] = t3
					buf8_1[1] = args[1]
					t4 := ext5(m, buf8_1)
					if t4 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnLoad", "write-read race", t4, 1)
					}
					buf8_2[0] = args[1]
					t5 := ext4(m, buf8_2)
					meta.StoreField(e0, 448, 64, t5)
					v0 = cachedStore(t5, 64, true)
				}
			}
			mu1.Unlock()
			return 0
		},
		// ftOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			var v1 uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 384, 64)
				t1 := v0
				buf9_0[0] = args[1]
				t2 := ext4(m, buf9_0)
				if int64(t1) != int64(t2) {
					rt.stats.Asserts++
					t3 := v0
					buf9_1[0] = t3
					buf9_1[1] = args[1]
					t4 := ext5(m, buf9_1)
					if t4 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnStore", "write-write race", t4, 1)
					}
					rt.stats.Asserts++
					v1 = meta.LoadField(e0, 448, 64)
					t5 := v1
					buf9_2[0] = t5
					buf9_2[1] = args[1]
					t6 := ext5(m, buf9_2)
					if t6 != 1 {
						rt.stats.AssertFailures++
						m.Report("ftOnStore", "read-write race", t6, 1)
					}
					buf9_3[0] = args[1]
					t7 := ext4(m, buf9_3)
					meta.StoreField(e0, 384, 64, t7)
					v0 = cachedStore(t7, 64, true)
				}
			}
			mu1.Unlock()
			return 0
		},
		// uafOnMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			mu1.Lock()
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c1.Fill(t1, t2, 512, 8, 0)
				}
				e0 = c1.Entry((args[0] >> 3))
				meta.StoreField(e0, 576, 64, args[1])
			}
			mu1.Unlock()
			return 0
		},
		// uafOnCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			mu1.Lock()
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 3)
				if t2 > 0 {
					c1.Fill(t1, t2, 512, 8, 0)
				}
				e0 = c1.Entry((args[0] >> 3))
				meta.StoreField(e0, 576, 64, (args[1] * args[2]))
			}
			mu1.Unlock()
			return 0
		},
		// uafOnFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			mu1.Lock()
			{
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 576, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 3)
					if t4 > 0 {
						if t4 == 1 {
							meta.StoreField(e0, 512, 8, 1)
						} else {
							c1.Fill(t3, t4, 512, 8, 1)
						}
					}
					meta.StoreField(e0, 576, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			mu1.Unlock()
			return 0
		},
		// uafOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			mu1.Lock()
			{
				rt.stats.Asserts++
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 512, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnLoad", "use after free (read)", t1, 0)
				}
			}
			mu1.Unlock()
			return 0
		},
		// uafOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			mu1.Lock()
			{
				rt.stats.Asserts++
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.SignExtend(meta.LoadField(e0, 512, 8), 8)
				t1 := v0
				if t1 != 0 {
					rt.stats.AssertFailures++
					m.Report("uafOnStore", "use after free (write)", t1, 0)
				}
			}
			mu1.Unlock()
			return 0
		},
		// ttOnGets
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu1.Lock()
			{
				t1, t2 := granules(args[0], 17, 3)
				if t2 > 0 {
					c1.Fill(t1, t2, 640, 64, 1)
				}
			}
			mu1.Unlock()
			return 0
		},
		// ttOnLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var ret uint64
			mu1.Lock()
			{
				rt.stats.Asserts++
				if args[2] != 0 {
					rt.stats.AssertFailures++
					m.Report("ttOnLoad", "tainted value used as load address", args[2], 0)
				}
				t1, t2 := granules(args[0], args[1], 3)
				var t3 uint64
				if t2 != 0 {
					t3 = c1.RangeOr(t1, t2, 640, 64)
				}
				ret = t3
				goto done
			}
		done:
			mu1.Unlock()
			return ret
		},
		// ttOnStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			mu1.Lock()
			{
				rt.stats.Asserts++
				if args[3] != 0 {
					rt.stats.AssertFailures++
					m.Report("ttOnStore", "tainted value used as store address", args[3], 0)
				}
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					c1.Fill(t1, t2, 640, 64, args[1])
				}
			}
			mu1.Unlock()
			return 0
		},
	}
}

// stagedMsanSplit stages msan (split).
func stagedMsanSplit(rt *Runtime) []vm.HandlerFn {
	c0 := rt.groups[0].c.(*meta.ChunkMap)
	c1 := rt.groups[1].c.(*meta.ChunkMap)
	return []vm.HandlerFn{
		// onMalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 18446744073709551615)
				}
				e0 = c1.Entry((args[0] >> 3))
				meta.StoreField(e0, 0, 64, args[1])
			}
			return 0
		},
		// onCalloc
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			{
				t1, t2 := granules(args[0], (args[1] * args[2]), 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
				e0 = c1.Entry((args[0] >> 3))
				meta.StoreField(e0, 0, 64, (args[1] * args[2]))
			}
			return 0
		},
		// onFree
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			var e0 []uint64
			var v0 uint64
			{
				e0 = c1.Entry((args[0] >> 3))
				v0 = meta.LoadField(e0, 0, 64)
				t1 := v0
				if t1 != 0 {
					t2 := v0
					t3, t4 := granules(args[0], t2, 3)
					if t4 > 0 {
						c0.Fill(t3, t4, 0, 8, 18446744073709551615)
					}
					meta.StoreField(e0, 0, 64, 0)
					v0 = cachedStore(0, 64, true)
				}
			}
			return 0
		},
		// onAlloca
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 18446744073709551615)
				}
			}
			return 0
		},
		// onStore
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, args[1])
				}
			}
			return 0
		},
		// onLoad
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[1], 3)
				var t3 uint64
				if t2 != 0 {
					t3 = meta.SignExtend(c0.RangeOr(t1, t2, 0, 8), 8)
				}
				return t3
			}
		},
		// onBranch
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				rt.stats.Asserts++
				if args[0] != 0 {
					rt.stats.AssertFailures++
					m.Report("onBranch", "use of uninitialized value", args[0], 0)
				}
			}
			return 0
		},
		// onMemset
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
			}
			return 0
		},
		// onMemcpy
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[2], 3)
				if t2 > 0 {
					t3, t4 := granules(args[1], args[2], 3)
					var t5 uint64
					if t4 != 0 {
						t5 = meta.SignExtend(c0.RangeOr(t3, t4, 0, 8), 8)
					}
					c0.Fill(t1, t2, 0, 8, t5)
				}
			}
			return 0
		},
		// onGets
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], 17, 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
			}
			return 0
		},
		// onSSLRead
		func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			{
				t1, t2 := granules(args[0], args[1], 3)
				if t2 > 0 {
					c0.Fill(t1, t2, 0, 8, 0)
				}
			}
			return 0
		},
	}
}
