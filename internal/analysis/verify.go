package analysis

import (
	"fmt"
	"slices"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// MaxVerifyStack bounds the abstract operand-stack depth; any path that
// exceeds it is rejected with RuleStackOverflow. The interpreter's frames
// are sized from the link-time MaxStack, so this is a sanity ceiling, not a
// tight bound.
const MaxVerifyStack = 4096

// maxVerifyLocals bounds MaxLocals; slot operands are u16 so nothing above
// this is addressable anyway, and it keeps adversarial (fuzzed) headers from
// forcing huge allocations.
const maxVerifyLocals = 1 << 16

// Verify symbolically executes every bytecode method of the program and
// returns a Report of all findings. It accepts linked and unlinked programs
// alike — symbolic references are resolved by name when the linker has not
// filled them in — so malformed inputs can be analyzed even when linking
// would refuse them. Verification of a method stops at its first rejecting
// finding; unreachable-code warnings are only computed for clean methods.
func Verify(prog *classfile.Program) *Report {
	rep := &Report{}
	v := &mverify{rep: rep, res: newResolver(prog)}
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			v.verifyMethod(c, m)
		}
	}
	return rep
}

// resolver resolves symbolic class/method/field names without requiring a
// linked program. Lookup walks the superclass chain by name with a visited
// set, so even cyclic (malformed) hierarchies terminate.
type resolver struct {
	prog   *classfile.Program
	byName map[string]*classfile.Class
}

func newResolver(p *classfile.Program) *resolver {
	r := &resolver{prog: p, byName: make(map[string]*classfile.Class, len(p.Classes))}
	for _, c := range p.Classes {
		if _, dup := r.byName[c.Name]; !dup {
			r.byName[c.Name] = c
		}
	}
	return r
}

func (r *resolver) methodNamed(className, name string) *classfile.Method {
	seen := map[*classfile.Class]bool{}
	for c := r.byName[className]; c != nil && !seen[c]; c = r.byName[c.SuperName] {
		seen[c] = true
		for _, m := range c.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	return nil
}

func (r *resolver) fieldNamed(className, name string) *classfile.Field {
	seen := map[*classfile.Class]bool{}
	for c := r.byName[className]; c != nil && !seen[c]; c = r.byName[c.SuperName] {
		seen[c] = true
		for _, f := range c.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// lslot is the abstract state of one local variable slot.
type lslot struct {
	kind bytecode.ValKind
	init bool
}

// absState is the abstract machine state at one instruction boundary.
type absState struct {
	stack  []bytecode.ValKind
	locals []lslot
}

func (s absState) clone() absState {
	return absState{
		stack:  append([]bytecode.ValKind(nil), s.stack...),
		locals: append([]lslot(nil), s.locals...),
	}
}

// mverify verifies one method at a time. One mverify serves every method
// of a Verify call, so its per-method storage — the decoded instructions,
// the pc index, the state table and the scratch state — is reused rather
// than reallocated per method and per visit.
type mverify struct {
	rep  *Report
	res  *resolver
	name string
	m    *classfile.Method

	ins   []bytecode.Instr
	idxOf map[uint32]int // instruction start pc -> index

	states  []absState
	seen    []bool
	work    []int
	stopped bool

	cur absState // the visited instruction's state, transferred in place
}

func (v *mverify) fail(pc uint32, rule, format string, args ...any) {
	if v.stopped {
		return
	}
	v.rep.Findings = append(v.rep.Findings, Finding{
		Method:  v.name,
		PC:      pc,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
	v.stopped = true
}

func (v *mverify) warn(pc uint32, rule, format string, args ...any) {
	v.rep.Findings = append(v.rep.Findings, Finding{
		Method:  v.name,
		PC:      pc,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Warn:    true,
	})
}

func typeKind(t classfile.Type) bytecode.ValKind {
	switch t {
	case classfile.TInt:
		return bytecode.KInt
	case classfile.TFloat:
		return bytecode.KFloat
	case classfile.TRef:
		return bytecode.KRef
	}
	return bytecode.KAny
}

func qname(c *classfile.Class, m *classfile.Method) string {
	if m.Class != nil {
		return m.QName()
	}
	return c.Name + "." + m.Name
}

func (v *mverify) verifyMethod(c *classfile.Class, m *classfile.Method) {
	v.name, v.m, v.stopped = qname(c, m), m, false
	if m.Abstract || m.Native != "" {
		return // no bytecode to verify; structural rules are the linker's
	}
	if len(m.Code) == 0 {
		v.fail(0, RuleTruncatedCode, "method has no code")
		return
	}
	if m.MaxLocals < 0 || m.MaxLocals > maxVerifyLocals {
		v.fail(0, RuleLocalOutOfRange, "MaxLocals %d out of range", m.MaxLocals)
		return
	}
	if m.MaxLocals < m.NArgs() {
		v.fail(0, RuleLocalOutOfRange, "MaxLocals %d cannot hold %d arguments", m.MaxLocals, m.NArgs())
		return
	}
	// Decode instruction by instruction (not bytecode.Decode, which folds
	// target validation into decoding) so target errors surface under their
	// own rule below.
	ins := v.ins[:0]
	for pc := uint32(0); int(pc) < len(m.Code); {
		in, err := bytecode.DecodeAt(m.Code, pc)
		if err != nil {
			v.fail(pc, RuleTruncatedCode, "%v", err)
			return
		}
		ins = append(ins, in)
		pc = in.Next()
	}
	if len(ins) == 0 {
		v.fail(0, RuleTruncatedCode, "method decodes to no instructions")
		return
	}
	v.ins = ins
	if v.idxOf == nil {
		v.idxOf = make(map[uint32]int, len(ins))
	}
	clear(v.idxOf)
	for i, in := range ins {
		v.idxOf[in.PC] = i
	}

	// The last instruction must not fall through (or need a return site).
	last := ins[len(ins)-1]
	switch bytecode.InfoOf(last.Op).Flow {
	case bytecode.FlowGoto, bytecode.FlowReturn, bytecode.FlowSwitch,
		bytecode.FlowHalt, bytecode.FlowThrow:
	default:
		v.fail(last.PC, RuleFallOffEnd, "control can run past the last instruction (%s)", last.Op)
		return
	}

	// Every branch and switch target must land on an instruction boundary.
	for _, in := range ins {
		for _, t := range in.BranchTargets() {
			if _, ok := v.idxOf[t]; !ok {
				v.fail(in.PC, RuleBadJumpTarget, "%s targets pc %d, which is not an instruction boundary", in.Op, t)
				return
			}
		}
	}

	// Exception table sanity: valid ranges, boundaries on instructions,
	// catch classes in range.
	codeEnd := uint32(len(m.Code))
	for i := range m.Handlers {
		h := &m.Handlers[i]
		if h.StartPC >= h.EndPC || h.EndPC > codeEnd {
			v.fail(h.StartPC, RuleBadJumpTarget, "handler %d has bad range [%d, %d)", i, h.StartPC, h.EndPC)
			return
		}
		if _, ok := v.idxOf[h.StartPC]; !ok {
			v.fail(h.StartPC, RuleBadJumpTarget, "handler %d starts mid-instruction", i)
			return
		}
		if _, ok := v.idxOf[h.HandlerPC]; !ok {
			v.fail(h.HandlerPC, RuleBadJumpTarget, "handler %d targets pc %d, which is not an instruction boundary", i, h.HandlerPC)
			return
		}
		if h.ClassIdx != -1 && (h.ClassIdx < 0 || int(h.ClassIdx) >= len(v.res.prog.Classes)) {
			v.fail(h.StartPC, RuleBadRefIndex, "handler %d catch class %d out of range (%d classes)", i, h.ClassIdx, len(v.res.prog.Classes))
			return
		}
	}

	// Entry state: receiver and parameters initialized, everything else
	// uninitialized.
	entry := absState{locals: make([]lslot, m.MaxLocals)}
	slot := 0
	if !m.Static {
		entry.locals[slot] = lslot{kind: bytecode.KRef, init: true}
		slot++
	}
	for _, p := range m.Params {
		entry.locals[slot] = lslot{kind: typeKind(p), init: true}
		slot++
	}

	v.states = slices.Grow(v.states[:0], len(ins))[:len(ins)]
	v.seen = slices.Grow(v.seen[:0], len(ins))[:len(ins)]
	clear(v.states)
	clear(v.seen)
	v.states[0] = entry
	v.seen[0] = true
	v.work = append(v.work[:0], 0)

	for len(v.work) > 0 && !v.stopped {
		i := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		v.step(i)
	}
	if v.stopped {
		return
	}

	// Unreachable-block warnings: any never-visited leader starts a dead
	// block. Leaders match the cfg package's definition.
	leaders := map[uint32]bool{ins[0].PC: true}
	for _, in := range ins {
		for _, t := range in.BranchTargets() {
			leaders[t] = true
		}
		if in.Op.IsTerminator() {
			leaders[in.Next()] = true
		}
	}
	for _, h := range m.Handlers {
		leaders[h.HandlerPC] = true
	}
	for i, in := range ins {
		if !v.seen[i] && leaders[in.PC] {
			v.warn(in.PC, RuleUnreachableBlock, "block at pc %d is unreachable", in.PC)
		}
	}
}

// push grows the abstract stack, enforcing the depth ceiling.
func (v *mverify) push(st *absState, pc uint32, k bytecode.ValKind) {
	if len(st.stack) >= MaxVerifyStack {
		v.fail(pc, RuleStackOverflow, "operand stack exceeds %d values", MaxVerifyStack)
		return
	}
	st.stack = append(st.stack, k)
}

// pop removes the top of the abstract stack and checks its kind. what names
// the operand for diagnostics.
func (v *mverify) pop(st *absState, pc uint32, need bytecode.ValKind, what string) bytecode.ValKind {
	if len(st.stack) == 0 {
		v.fail(pc, RuleStackUnderflow, "%s pops an empty stack", what)
		return bytecode.KAny
	}
	k := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	if need != bytecode.KAny && k != need {
		if k == bytecode.KAny {
			v.fail(pc, RuleKindMismatch, "%s requires %s, found a value whose kind conflicts between paths", what, need)
		} else {
			v.fail(pc, RuleKindMismatch, "%s requires %s, found %s", what, need, k)
		}
	}
	return k
}

// readLocal checks an initialized, kind-compatible read of a local slot.
func (v *mverify) readLocal(st *absState, in bytecode.Instr, need bytecode.ValKind) bytecode.ValKind {
	slot := int(uint16(in.A))
	if slot >= len(st.locals) {
		v.fail(in.PC, RuleLocalOutOfRange, "%s slot %d out of range (max %d)", in.Op, slot, len(st.locals))
		return bytecode.KAny
	}
	l := st.locals[slot]
	if !l.init {
		v.fail(in.PC, RuleUninitLocal, "%s reads local %d before any path initializes it", in.Op, slot)
		return bytecode.KAny
	}
	if need != bytecode.KAny && l.kind != need {
		if l.kind == bytecode.KAny {
			v.fail(in.PC, RuleKindMismatch, "%s requires local %d to be %s, but its kind conflicts between paths", in.Op, slot, need)
		} else {
			v.fail(in.PC, RuleKindMismatch, "%s requires local %d to be %s, found %s", in.Op, slot, need, l.kind)
		}
	}
	return l.kind
}

// writeLocal records a kind-defining write to a local slot.
func (v *mverify) writeLocal(st *absState, in bytecode.Instr, k bytecode.ValKind) {
	slot := int(uint16(in.A))
	if slot >= len(st.locals) {
		v.fail(in.PC, RuleLocalOutOfRange, "%s slot %d out of range (max %d)", in.Op, slot, len(st.locals))
		return
	}
	st.locals[slot] = lslot{kind: k, init: true}
}

// flowTo merges the state st into the entry of instruction j, queueing it
// when anything changed. st is only read: the first visit copies it.
func (v *mverify) flowTo(j int, st *absState) {
	if v.stopped {
		return
	}
	if !v.seen[j] {
		v.states[j] = st.clone()
		v.seen[j] = true
		v.work = append(v.work, j)
		return
	}
	dst := &v.states[j]
	if len(dst.stack) != len(st.stack) {
		v.fail(v.ins[j].PC, RuleStackImbalance,
			"paths join at pc %d with stack depths %d and %d", v.ins[j].PC, len(dst.stack), len(st.stack))
		return
	}
	changed := false
	for i := range dst.stack {
		mk := bytecode.MergeKind(dst.stack[i], st.stack[i])
		if mk != dst.stack[i] {
			dst.stack[i] = mk
			changed = true
		}
	}
	for i := range dst.locals {
		a, b := dst.locals[i], st.locals[i]
		merged := lslot{init: a.init && b.init, kind: bytecode.MergeKind(a.kind, b.kind)}
		if !merged.init {
			merged.kind = bytecode.KAny
		}
		if merged != a {
			dst.locals[i] = merged
			changed = true
		}
	}
	if changed {
		v.work = append(v.work, j)
	}
}

// step interprets instruction i over its merged entry state and propagates
// the result to every successor, including exception-handler entries.
func (v *mverify) step(i int) {
	in := v.ins[i]
	st := &v.cur
	st.stack = append(st.stack[:0], v.states[i].stack...)
	st.locals = append(st.locals[:0], v.states[i].locals...)

	// Any instruction inside a protected range can transfer to the handler:
	// entry state there is the single thrown reference over current locals.
	thrown := [1]bytecode.ValKind{bytecode.KRef}
	for _, h := range v.m.Handlers {
		if h.Covers(in.PC) {
			v.flowTo(v.idxOf[h.HandlerPC], &absState{
				stack:  thrown[:],
				locals: st.locals,
			})
			if v.stopped {
				return
			}
		}
	}

	switch in.Op {
	case bytecode.ILoad:
		v.readLocal(st, in, bytecode.KInt)
		v.push(st, in.PC, bytecode.KInt)
	case bytecode.FLoad:
		v.readLocal(st, in, bytecode.KFloat)
		v.push(st, in.PC, bytecode.KFloat)
	case bytecode.ALoad:
		v.readLocal(st, in, bytecode.KRef)
		v.push(st, in.PC, bytecode.KRef)
	case bytecode.IStore:
		v.pop(st, in.PC, bytecode.KInt, "istore")
		v.writeLocal(st, in, bytecode.KInt)
	case bytecode.FStore:
		v.pop(st, in.PC, bytecode.KFloat, "fstore")
		v.writeLocal(st, in, bytecode.KFloat)
	case bytecode.AStore:
		v.pop(st, in.PC, bytecode.KRef, "astore")
		v.writeLocal(st, in, bytecode.KRef)
	case bytecode.IInc:
		v.readLocal(st, in, bytecode.KInt)

	case bytecode.SConst:
		if int(uint16(in.A)) >= len(v.res.prog.Strings) {
			v.fail(in.PC, RuleBadRefIndex, "sconst index %d out of range (%d strings)", uint16(in.A), len(v.res.prog.Strings))
			return
		}
		v.push(st, in.PC, bytecode.KRef)

	case bytecode.New, bytecode.InstanceOf, bytecode.CheckCast:
		if int(uint16(in.A)) >= len(v.res.prog.Classes) {
			v.fail(in.PC, RuleBadRefIndex, "%s class index %d out of range (%d classes)", in.Op, uint16(in.A), len(v.res.prog.Classes))
			return
		}
		pops, pushes, _ := bytecode.StackKinds(in.Op)
		for _, k := range pops {
			v.pop(st, in.PC, k, in.Op.String())
		}
		for _, k := range pushes {
			v.push(st, in.PC, k)
		}

	case bytecode.Dup:
		k := v.pop(st, in.PC, bytecode.KAny, "dup")
		v.push(st, in.PC, k)
		v.push(st, in.PC, k)
	case bytecode.DupX1:
		a := v.pop(st, in.PC, bytecode.KAny, "dup_x1")
		b := v.pop(st, in.PC, bytecode.KAny, "dup_x1")
		v.push(st, in.PC, a)
		v.push(st, in.PC, b)
		v.push(st, in.PC, a)
	case bytecode.Swap:
		a := v.pop(st, in.PC, bytecode.KAny, "swap")
		b := v.pop(st, in.PC, bytecode.KAny, "swap")
		v.push(st, in.PC, a)
		v.push(st, in.PC, b)

	case bytecode.InvokeStatic, bytecode.InvokeVirtual, bytecode.InvokeSpecial:
		v.stepInvoke(st, in)

	case bytecode.GetField, bytecode.PutField, bytecode.GetStatic, bytecode.PutStatic:
		v.stepField(st, in)

	case bytecode.ReturnVoid:
		if v.m.Ret != classfile.TVoid {
			v.fail(in.PC, RuleKindMismatch, "return in method returning %s", v.m.Ret)
			return
		}
	case bytecode.IReturn, bytecode.FReturn, bytecode.AReturn:
		want := map[bytecode.Op]classfile.Type{
			bytecode.IReturn: classfile.TInt,
			bytecode.FReturn: classfile.TFloat,
			bytecode.AReturn: classfile.TRef,
		}[in.Op]
		if v.m.Ret != want {
			v.fail(in.PC, RuleKindMismatch, "%s in method returning %s", in.Op, v.m.Ret)
			return
		}
		v.pop(st, in.PC, typeKind(want), in.Op.String())

	default:
		pops, pushes, ok := bytecode.StackKinds(in.Op)
		if !ok {
			v.fail(in.PC, RuleTruncatedCode, "invalid opcode %d", in.Op)
			return
		}
		for _, k := range pops {
			v.pop(st, in.PC, k, in.Op.String())
		}
		for _, k := range pushes {
			v.push(st, in.PC, k)
		}
	}
	if v.stopped {
		return
	}

	// Returns must leave an empty stack (the frame is discarded; leftover
	// values indicate an imbalance the dispatcher would silently drop).
	switch bytecode.InfoOf(in.Op).Flow {
	case bytecode.FlowReturn, bytecode.FlowHalt:
		if len(st.stack) != 0 {
			v.fail(in.PC, RuleStackImbalance, "%s leaves %d values on the stack", in.Op, len(st.stack))
		}
		return
	case bytecode.FlowThrow:
		return
	case bytecode.FlowGoto:
		v.flowTo(v.idxOf[uint32(in.A)], st)
		return
	case bytecode.FlowCond:
		v.flowTo(v.idxOf[uint32(in.A)], st)
		v.flowTo(i+1, st)
		return
	case bytecode.FlowSwitch:
		v.flowTo(v.idxOf[in.Dflt], st)
		for _, t := range in.Targets {
			v.flowTo(v.idxOf[t], st)
		}
		return
	default: // FlowNext, FlowCall: fall through to the next instruction
		v.flowTo(i+1, st)
	}
}

func (v *mverify) stepInvoke(st *absState, in bytecode.Instr) {
	prog := v.res.prog
	idx := int(uint16(in.A))
	if idx >= len(prog.MethodRefs) {
		v.fail(in.PC, RuleBadRefIndex, "%s method ref %d out of range (%d refs)", in.Op, idx, len(prog.MethodRefs))
		return
	}
	ref := &prog.MethodRefs[idx]
	want := map[bytecode.Op]classfile.RefKind{
		bytecode.InvokeStatic:  classfile.RefStatic,
		bytecode.InvokeVirtual: classfile.RefVirtual,
		bytecode.InvokeSpecial: classfile.RefSpecial,
	}[in.Op]
	if ref.Kind != want {
		v.fail(in.PC, RuleBadRefIndex, "%s uses %s method ref %q", in.Op, ref.Kind, ref.Name)
		return
	}
	target := ref.Method
	if target == nil {
		target = v.res.methodNamed(ref.ClassName, ref.Name)
	}
	if target == nil {
		v.fail(in.PC, RuleBadRefIndex, "%s: no method %s.%s", in.Op, ref.ClassName, ref.Name)
		return
	}
	if ref.Kind != classfile.RefStatic && target.Static {
		v.fail(in.PC, RuleBadRefIndex, "%s ref to static method %s.%s", ref.Kind, ref.ClassName, ref.Name)
		return
	}
	if ref.Kind == classfile.RefStatic && !target.Static {
		v.fail(in.PC, RuleBadRefIndex, "static ref to instance method %s.%s", ref.ClassName, ref.Name)
		return
	}
	// Arguments are popped last-parameter first, then the receiver.
	for pi := len(target.Params) - 1; pi >= 0; pi-- {
		v.pop(st, in.PC, typeKind(target.Params[pi]),
			fmt.Sprintf("%s %s.%s argument %d", in.Op, ref.ClassName, ref.Name, pi))
		if v.stopped {
			return
		}
	}
	if ref.Kind != classfile.RefStatic {
		v.pop(st, in.PC, bytecode.KRef, fmt.Sprintf("%s %s.%s receiver", in.Op, ref.ClassName, ref.Name))
	}
	if v.stopped {
		return
	}
	if target.Ret != classfile.TVoid {
		v.push(st, in.PC, typeKind(target.Ret))
	}
}

func (v *mverify) stepField(st *absState, in bytecode.Instr) {
	prog := v.res.prog
	idx := int(uint16(in.A))
	if idx >= len(prog.FieldRefs) {
		v.fail(in.PC, RuleBadRefIndex, "%s field ref %d out of range (%d refs)", in.Op, idx, len(prog.FieldRefs))
		return
	}
	ref := &prog.FieldRefs[idx]
	wantStatic := in.Op == bytecode.GetStatic || in.Op == bytecode.PutStatic
	if ref.Static != wantStatic {
		v.fail(in.PC, RuleBadRefIndex, "%s uses mismatched field ref %q (static=%v)", in.Op, ref.Name, ref.Static)
		return
	}
	f := ref.Field
	if f == nil {
		f = v.res.fieldNamed(ref.ClassName, ref.Name)
	}
	if f == nil {
		v.fail(in.PC, RuleBadRefIndex, "%s: no field %s.%s", in.Op, ref.ClassName, ref.Name)
		return
	}
	fk := typeKind(f.Type)
	what := fmt.Sprintf("%s %s.%s", in.Op, ref.ClassName, ref.Name)
	switch in.Op {
	case bytecode.GetField:
		v.pop(st, in.PC, bytecode.KRef, what+" object")
		if !v.stopped {
			v.push(st, in.PC, fk)
		}
	case bytecode.PutField:
		v.pop(st, in.PC, fk, what+" value")
		if !v.stopped {
			v.pop(st, in.PC, bytecode.KRef, what+" object")
		}
	case bytecode.GetStatic:
		v.push(st, in.PC, fk)
	case bytecode.PutStatic:
		v.pop(st, in.PC, fk, what+" value")
	}
}
