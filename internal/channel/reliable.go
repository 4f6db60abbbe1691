package channel

import (
	"errors"
	"fmt"
)

// Reliable wraps a Delegation channel with the fault-tolerance policy of
// §VII: like an RDMA reliable connection, a delegation the peer nacks (a
// man-in-the-middle corrupted it) or that a lossy network never delivered
// is retransmitted — as a *fresh* delegation, because the freshness rule
// forbids replaying the same sealed root. Retries are bounded; persistent
// failure surfaces as ErrGiveUp so the application can fail over (the
// paper's primary-backup suggestion).
type Reliable struct {
	d *Delegation
	// MaxRetries bounds retransmissions per message (default 3).
	MaxRetries int
	// Retries counts retransmissions performed (observability).
	Retries int
}

// NewReliable wraps d.
func NewReliable(d *Delegation) *Reliable { return &Reliable{d: d, MaxRetries: 3} }

// ErrGiveUp reports a message that stayed undeliverable after MaxRetries
// retransmissions.
var ErrGiveUp = errors.New("channel: delegation failed after retries")

// SendReliably sends payload and confirms delivery. pump runs the
// receiving side (its Recv loop) between attempts — the synchronous
// simulation's stand-in for concurrent execution. SendReliably returns
// once every chunk has been positively acked, retrying nacked or lost
// attempts with fresh delegations up to MaxRetries times.
func (r *Reliable) SendReliably(payload []byte, pump func()) error {
	for attempt := 0; attempt <= r.MaxRetries; attempt++ {
		if attempt > 0 {
			r.Retries++
		}
		sendErr := r.d.Send(payload)
		if sendErr != nil && !errors.Is(sendErr, ErrClosed) {
			return sendErr
		}
		sent := sendErr == nil
		pump()
		ackErr := r.d.DrainAcks()
		switch {
		case ackErr == nil:
		case errors.Is(ackErr, ErrClosed), errors.Is(ackErr, errUnknownAck):
			// A nack or a stale/garbled ack: retryable conditions.
		default:
			return ackErr
		}
		// Success: this attempt went out, nothing of ours was nacked, and
		// every chunk was confirmed. Stale acks for long-gone delegations
		// (adversarial noise) do not force a retry.
		if sent && !errors.Is(ackErr, ErrClosed) && r.d.InFlight() == 0 {
			return nil
		}
		// Nacked, lost, or never sent this round: abandon anything still
		// in flight (the peer will never ack a dropped closure) and retry.
		if err := r.d.AbandonInFlight(); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w: %d retries", ErrGiveUp, r.Retries)
}
