package channel

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"mmt/internal/crypt"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

// Secure is the software secure channel (§II-C): the sender encrypts and
// authenticates the message with AES-GCM, copies it into a shared
// non-secure buffer, and remote-writes it; the receiver copies it out of
// the shared buffer and decrypts. Compared with the plain channel this
// adds exactly the four operations of Table IV: memcpy x2, encrypt,
// decrypt (remote write is common to both).
//
// Nonces are strictly increasing sequence numbers checked by the receiver,
// so the secure channel also rejects replays and re-orders — it is the
// full-strength baseline the paper compares against, not a strawman.
type Secure struct {
	common
	aead    cipher.AEAD
	sendSeq uint64
	recvSeq uint64
}

// NewSecure builds one side of a secure channel. Both sides must use the
// same key (negotiated by Diffie-Hellman in a full system). It returns
// an error if the AEAD cannot be constructed from the key.
func NewSecure(ep *netsim.Endpoint, peer string, prof *sim.Profile, key crypt.Key) (*Secure, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("channel: aes.NewCipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("channel: cipher.NewGCM: %w", err)
	}
	return &Secure{common: common{ep: ep, peer: peer, prof: prof}, aead: aead}, nil
}

// Send encrypts payload, copies it to the shared buffer, and remote-writes
// it to the peer's receive buffer.
func (c *Secure) Send(payload []byte) error {
	n := len(payload)
	// Encrypt inside the enclave.
	c.charge(&c.stats.Encrypt, trace.PhaseEncrypt, c.prof.EncryptCost(n))
	nonce := make([]byte, c.aead.NonceSize())
	binary.LittleEndian.PutUint64(nonce, c.sendSeq)
	wire := make([]byte, 8, 8+n+c.aead.Overhead())
	binary.LittleEndian.PutUint64(wire, c.sendSeq)
	wire = c.aead.Seal(wire, nonce, payload, nil)
	c.sendSeq++
	// Copy ciphertext from enclave memory to the shared non-secure buffer.
	c.charge(&c.stats.Memcpy, trace.PhaseMemcpy, c.prof.MemcpyCost(n))
	// Remote write of the shared buffer.
	c.charge(&c.stats.RemoteWrite, trace.PhaseDMA, c.prof.RemoteWriteCost(len(wire)))
	// One send-side op: the sum of the three charges above.
	c.probe.RecordOp(trace.OpRemoteWrite,
		c.prof.EncryptCost(n)+c.prof.MemcpyCost(n)+c.prof.RemoteWriteCost(len(wire)), 1)
	c.stats.Messages++
	c.stats.Bytes += n
	// wire was built for this message, so it is handed over, not copied.
	c.ep.SendOwned(c.peer, netsim.KindData, wire, trace.Context{})
	return nil
}

// Recv copies the next message out of the shared receive buffer into
// enclave memory and decrypts it. Replayed or re-ordered messages fail the
// sequence check; tampered ones fail authentication.
func (c *Secure) Recv() ([]byte, error) {
	m, ok := c.ep.Recv()
	if !ok {
		return nil, ErrEmpty
	}
	if m.Kind != netsim.KindData || len(m.Payload) < 8+16 {
		return nil, fmt.Errorf("channel: malformed secure-channel message")
	}
	seq := binary.LittleEndian.Uint64(m.Payload)
	if seq != c.recvSeq {
		if seq < c.recvSeq {
			c.probe.Event(trace.EvReplayReject, c.ep.Clock().Now(), seq, "secure channel: stale sequence")
		} else {
			c.probe.Event(trace.EvReorderReject, c.ep.Clock().Now(), seq, "secure channel: sequence gap")
		}
		return nil, fmt.Errorf("channel: sequence %d, want %d (replay or re-order)", seq, c.recvSeq)
	}
	n := len(m.Payload) - 8 - c.aead.Overhead()
	// Copy from the shared buffer into enclave memory.
	c.charge(&c.stats.Memcpy, trace.PhaseMemcpy, c.prof.MemcpyCost(n))
	// Decrypt and authenticate inside the enclave.
	c.charge(&c.stats.Decrypt, trace.PhaseDecrypt, c.prof.DecryptCost(n))
	// One receive-side op: the copy plus the decrypt.
	c.probe.RecordOp(trace.OpRemoteRead, c.prof.MemcpyCost(n)+c.prof.DecryptCost(n), 1)
	nonce := make([]byte, c.aead.NonceSize())
	binary.LittleEndian.PutUint64(nonce, seq)
	pt, err := c.aead.Open(nil, nonce, m.Payload[8:], nil)
	if err != nil {
		c.probe.Event(trace.EvAuthFail, c.ep.Clock().Now(), seq, "secure channel: AEAD open failed")
		return nil, fmt.Errorf("channel: %w", crypt.ErrAuth)
	}
	c.recvSeq++
	return pt, nil
}
