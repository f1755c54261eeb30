package mir

import "fmt"

// FuncBuilder incrementally constructs a Func. Blocks are created with
// NewBlock and selected with SetBlock; emit methods append to the
// current block. Registers are allocated with NewReg (parameters occupy
// registers 0..NParams-1 automatically).
type FuncBuilder struct {
	f   *Func
	cur int
}

// NewFunc creates a function in p and returns its builder. The builder
// starts with block 0 selected.
func (p *Program) NewFunc(name string, nparams int) *FuncBuilder {
	if _, ok := p.Funcs[name]; ok {
		panic(fmt.Sprintf("mir: duplicate function %q", name))
	}
	f := &Func{Name: name, NParams: nparams, NRegs: nparams}
	f.Blocks = append(f.Blocks, Block{})
	p.Funcs[name] = f
	return &FuncBuilder{f: f}
}

// Func returns the function under construction.
func (b *FuncBuilder) Func() *Func { return b.f }

// NewReg allocates a fresh virtual register.
func (b *FuncBuilder) NewReg() Reg {
	r := Reg(b.f.NRegs)
	b.f.NRegs++
	return r
}

// Param returns the register holding the i-th (0-based) parameter.
func (b *FuncBuilder) Param(i int) Reg {
	if i < 0 || i >= b.f.NParams {
		panic(fmt.Sprintf("mir: function %s has no parameter %d", b.f.Name, i))
	}
	return Reg(i)
}

// NewBlock creates an empty block and returns its index (without
// selecting it).
func (b *FuncBuilder) NewBlock() int {
	b.f.Blocks = append(b.f.Blocks, Block{})
	return len(b.f.Blocks) - 1
}

// SetBlock selects the emission target.
func (b *FuncBuilder) SetBlock(i int) { b.cur = i }

// CurBlock returns the index of the current block.
func (b *FuncBuilder) CurBlock() int { return b.cur }

func (b *FuncBuilder) emit(in Instr) {
	blk := &b.f.Blocks[b.cur]
	blk.Instrs = append(blk.Instrs, in)
}

// Const emits dst = v into a fresh register.
func (b *FuncBuilder) Const(v int64) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpConst, Dst: r, Imm: v})
	return r
}

// Bin emits dst = a op b for an arithmetic or comparison opcode.
func (b *FuncBuilder) Bin(op Op, a, c Operand) Reg {
	if !op.IsBinOp() && !op.IsCmp() {
		panic(fmt.Sprintf("mir: Bin with non-binary op %s", op))
	}
	r := b.NewReg()
	b.emit(Instr{Op: op, Dst: r, A: a, B: c})
	return r
}

// BinTo emits dst = a op b into an existing register, for loop-carried
// values that live in a register across iterations instead of the
// memory cell Loop uses.
func (b *FuncBuilder) BinTo(dst Reg, op Op, a, c Operand) {
	if !op.IsBinOp() && !op.IsCmp() {
		panic(fmt.Sprintf("mir: BinTo with non-binary op %s", op))
	}
	b.emit(Instr{Op: op, Dst: dst, A: a, B: c})
}

// Add emits dst = a + b.
func (b *FuncBuilder) Add(a, c Operand) Reg { return b.Bin(OpAdd, a, c) }

// Sub emits dst = a - b.
func (b *FuncBuilder) Sub(a, c Operand) Reg { return b.Bin(OpSub, a, c) }

// Mul emits dst = a * b.
func (b *FuncBuilder) Mul(a, c Operand) Reg { return b.Bin(OpMul, a, c) }

// Load emits dst = mem[addr] of size bytes.
func (b *FuncBuilder) Load(addr Operand, size uint8) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpLoad, Dst: r, A: addr, Size: size})
	return r
}

// Store emits mem[addr] = val of size bytes.
func (b *FuncBuilder) Store(addr, val Operand, size uint8) {
	b.emit(Instr{Op: OpStore, A: addr, B: val, Size: size})
}

// Alloca emits a stack allocation of size bytes and returns the pointer
// register.
func (b *FuncBuilder) Alloca(size int64) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpAlloca, Dst: r, Imm: size})
	return r
}

// Br emits an unconditional branch.
func (b *FuncBuilder) Br(target int) {
	b.emit(Instr{Op: OpBr, Target: target})
}

// CondBr emits a conditional branch.
func (b *FuncBuilder) CondBr(cond Operand, then, els int) {
	b.emit(Instr{Op: OpCondBr, A: cond, Target: then, Else: els})
}

// Call emits dst = callee(args...). The callee may be a user function or
// a library model; the VM resolves it at link time.
func (b *FuncBuilder) Call(callee string, args ...Operand) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpCall, Dst: r, Callee: callee, Args: args})
	return r
}

// CallVoid emits callee(args...) discarding the result.
func (b *FuncBuilder) CallVoid(callee string, args ...Operand) {
	b.emit(Instr{Op: OpCall, Dst: NoReg, Callee: callee, Args: args})
}

// Ret emits a valueless return.
func (b *FuncBuilder) Ret() { b.emit(Instr{Op: OpRet}) }

// RetVal emits return a.
func (b *FuncBuilder) RetVal(a Operand) { b.emit(Instr{Op: OpRetVal, A: a}) }

// Lock emits acquisition of lock id a.
func (b *FuncBuilder) Lock(a Operand) { b.emit(Instr{Op: OpLock, A: a}) }

// Unlock emits release of lock id a.
func (b *FuncBuilder) Unlock(a Operand) { b.emit(Instr{Op: OpUnlock, A: a}) }

// Spawn emits dst = spawn callee(args...) and returns the thread-handle
// register.
func (b *FuncBuilder) Spawn(callee string, args ...Operand) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpSpawn, Dst: r, Callee: callee, Args: args})
	return r
}

// Join emits join(handle).
func (b *FuncBuilder) Join(handle Operand) {
	b.emit(Instr{Op: OpJoin, A: handle})
}

// If is a convenience that emits `if cond != 0 { then() } else { els() }`
// as a diamond and leaves the builder positioned in the join block. els
// may be nil for a one-armed conditional.
func (b *FuncBuilder) If(cond Operand, then, els func()) {
	thenB := b.NewBlock()
	join := b.NewBlock()
	elsB := join
	if els != nil {
		elsB = b.NewBlock()
	}
	b.CondBr(cond, thenB, elsB)

	b.SetBlock(thenB)
	then()
	b.Br(join)

	if els != nil {
		b.SetBlock(elsB)
		els()
		b.Br(join)
	}
	b.SetBlock(join)
}

// Loop is a convenience that emits a counted loop `for i = 0; i < n;
// i++ { body(i) }`. It creates the needed blocks and leaves the builder
// positioned in the exit block. The body callback receives the loop
// induction register.
func (b *FuncBuilder) Loop(n Operand, body func(i Reg)) {
	iVar := b.Alloca(8)
	zero := b.Const(0)
	b.Store(R(iVar), R(zero), 8)

	head := b.NewBlock()
	bodyB := b.NewBlock()
	exit := b.NewBlock()

	b.Br(head)
	b.SetBlock(head)
	iv := b.Load(R(iVar), 8)
	c := b.Bin(OpLt, R(iv), n)
	b.CondBr(R(c), bodyB, exit)

	b.SetBlock(bodyB)
	iv2 := b.Load(R(iVar), 8)
	body(iv2)
	iv3 := b.Load(R(iVar), 8)
	next := b.Add(R(iv3), C(1))
	b.Store(R(iVar), R(next), 8)
	b.Br(head)

	b.SetBlock(exit)
}
