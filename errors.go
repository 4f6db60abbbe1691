package mmt

import (
	"errors"

	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/monitor"
	"mmt/internal/tree"
)

// Sentinel errors of the delegation protocol and the protection engine,
// re-exported so callers match with errors.Is instead of error strings.
//
// Which operation returns which:
//
//   - ErrIntegrity comes out of Buffer.Read and Buffer.Write when a tree
//     node or data-line MAC check fails (a physical attacker rewrote
//     memory or the meta-zone), and out of Link.Delegate when the
//     receiver's full verification of a transferred closure finds a
//     tampered tree node or data line.
//   - ErrAuth comes out of Link.Delegate when the closure's sealed root
//     fails authentication: the root was tampered with in transit, or
//     the closure was re-encoded under the wrong key.
//   - ErrReplay comes out of Link.Delegate when the receiver sees a
//     closure whose root counter is not newer than the connection's
//     freshness floor — a stale closure was re-injected on the wire.
//   - ErrReorder comes out of Link.Delegate when the closure's
//     global-unique address is not greater than the last accepted one —
//     in-flight delegations were delivered out of order.
//   - ErrBadClosure comes out of Link.Delegate when what arrived does
//     not parse as a closure at all: the wire encoding is truncated or
//     inconsistent, or (on the message-passing channel) the framing
//     header inside an otherwise authentic closure names a chunk no
//     sender builds.
//   - ErrStaleCounter comes out of Link.Delegate on the *sender* side,
//     before anything is sealed or sent: the buffer was acquired before
//     a later delegation moved the connection's counter floor past it,
//     so the peer would be obliged to reject it as a replay. The buffer
//     stays valid; copy its contents into a fresh buffer to delegate.
//   - ErrPoolEmpty comes out of Link.Delegate and Link.Import when the
//     receiving machine has no free region for the closure. It is a
//     resource refusal, not a verdict: no security event is recorded and
//     the sender's buffer is nacked back to valid. Free a buffer there.
//   - ErrUnacked comes out of Link.Delegate when no ack or nack came
//     back (the network lost the closure or the ack). The buffer stays
//     in flight, read-only: the sender cannot tell which was lost.
//
// After a rejected delegation (any of ErrAuth, ErrReplay, ErrReorder,
// ErrIntegrity, ErrBadClosure from Link.Delegate), the receiver keeps waiting and the
// sender's buffer returns to the valid state for retry.
var (
	ErrIntegrity    = tree.ErrIntegrity
	ErrAuth         = crypt.ErrAuth
	ErrReplay       = core.ErrReplay
	ErrReorder      = core.ErrReorder
	ErrBadClosure   = core.ErrBadClosure
	ErrStaleCounter = core.ErrStaleCounter
	ErrPoolEmpty    = monitor.ErrPoolEmpty
	ErrUnacked      = errors.New("mmt: delegation sent but never acknowledged")
)
