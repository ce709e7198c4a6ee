package ulat

import "ulat/bank"

type execFn func(*Machine)

var execTable [8]execFn

func register(op Op, fn execFn) { execTable[op] = fn }

// handlerTable defeats static resolution: an indexed function value is
// not a shape the resolver follows, so TABX's bounds are underivable.
var handlerTable = []execFn{execTickx}

func init() {
	register(TICKX, execTickx)
	register(TABX, handlerTable[0]) // want `opcode TABX: handler expression cannot be resolved statically; latency bounds underivable`
	register(ROWX, execRowx)        // want `opcode ROWX: microword bank\.fl \(row RowFloat\) counted outside its Table 8 row RowSimple`
	register(Op(7), execRowx)       // want `register\(\) opcode argument cannot be resolved statically`
}

func execTickx(m *Machine) {
	m.ticks(uw.op, uint64(m.r0)) // want `opcode TICKX: tick count is not statically constant; latency bounds underivable`
}

// execRowx burns a Float-row word through bank's counting helper while
// registered as a Simple-group opcode: the row check must see the word
// arrive across the package boundary.
func execRowx(m *Machine) {
	m.tick(uw.op)
	bank.Spill(&bank.Machine{}, bank.Words.Fl)
}
