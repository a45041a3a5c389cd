package sshwire

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"honeyfarm/internal/wire"
)

// kexInit is the parsed form of SSH_MSG_KEXINIT.
type kexInit struct {
	cookie                [16]byte
	kexAlgos              []string
	hostKeyAlgos          []string
	ciphersC2S            []string
	ciphersS2C            []string
	macsC2S               []string
	macsS2C               []string
	compressionC2S        []string
	compressionS2C        []string
	languagesC2S          []string
	languagesS2C          []string
	firstKexPacketFollows bool

	raw []byte // the full payload including the message byte, for the exchange hash
}

// defaultKexAlgos and defaultHostKeyAlgos are the full supported suites
// in preference order.
func defaultKexAlgos() []string { return []string{algoKex, algoKexLibC, algoKexDH14} }

func defaultHostKeyAlgos() []string { return []string{algoHostKey, algoHostKeyRSA} }

func localKexInit(kexAlgos, hostKeyAlgos []string) *kexInit {
	if kexAlgos == nil {
		kexAlgos = defaultKexAlgos()
	}
	if hostKeyAlgos == nil {
		hostKeyAlgos = defaultHostKeyAlgos()
	}
	k := &kexInit{
		kexAlgos:       kexAlgos,
		hostKeyAlgos:   hostKeyAlgos,
		ciphersC2S:     []string{algoCipher},
		ciphersS2C:     []string{algoCipher},
		macsC2S:        []string{algoMAC},
		macsS2C:        []string{algoMAC},
		compressionC2S: []string{algoNone},
		compressionS2C: []string{algoNone},
	}
	if _, err := rand.Read(k.cookie[:]); err != nil {
		panic(fmt.Sprintf("sshwire: reading random cookie: %v", err))
	}
	return k
}

func (k *kexInit) marshal() []byte {
	b := wire.NewBuilder(256)
	b.Byte(msgKexInit)
	b.Raw(k.cookie[:])
	b.NameList(k.kexAlgos)
	b.NameList(k.hostKeyAlgos)
	b.NameList(k.ciphersC2S)
	b.NameList(k.ciphersS2C)
	b.NameList(k.macsC2S)
	b.NameList(k.macsS2C)
	b.NameList(k.compressionC2S)
	b.NameList(k.compressionS2C)
	b.NameList(k.languagesC2S)
	b.NameList(k.languagesS2C)
	b.Bool(k.firstKexPacketFollows)
	b.Uint32(0) // reserved
	k.raw = append([]byte(nil), b.Bytes()...)
	return k.raw
}

func parseKexInit(payload []byte) (*kexInit, error) {
	if len(payload) < 1 || payload[0] != msgKexInit {
		return nil, errors.New("sshwire: expected KEXINIT")
	}
	k := &kexInit{raw: append([]byte(nil), payload...)}
	r := wire.NewReader(payload[1:])
	copy(k.cookie[:], r.Bytes(16))
	k.kexAlgos = r.NameList()
	k.hostKeyAlgos = r.NameList()
	k.ciphersC2S = r.NameList()
	k.ciphersS2C = r.NameList()
	k.macsC2S = r.NameList()
	k.macsS2C = r.NameList()
	k.compressionC2S = r.NameList()
	k.compressionS2C = r.NameList()
	k.languagesC2S = r.NameList()
	k.languagesS2C = r.NameList()
	k.firstKexPacketFollows = r.Bool()
	r.Uint32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sshwire: parsing KEXINIT: %w", err)
	}
	return k, nil
}

// openKex runs the opening of the handshake, which is the same on both
// sides and waits for nothing: our identification string and KEXINIT
// leave as one flight (RFC 4253 §7.1 lets KEXINIT follow the
// identification at once; Conch and Dropbear send it so), then the
// peer's identification and KEXINIT are read.
//
// Between the two it makes the connection's ephemeral X25519 key. The
// peer is doing the same at that moment, so the two key generations run
// side by side where they used to run one after the other. The key is
// handed to the ECDH exchange and dropped if group14 is negotiated. It is
// made for this connection and never kept: a Q_S seen on two connections
// would identify the honeypot.
func openKex(t *transport, version string, local *kexInit, client bool) (*ecdh.PrivateKey, *kexInit, error) {
	t.sendVersion(version)
	if err := t.send(local.marshal(), true); err != nil {
		return nil, nil, err
	}
	eph, err := generateECDH()
	if err != nil {
		return nil, nil, err
	}
	if err := t.readVersion(client); err != nil {
		return nil, nil, err
	}
	payload, err := t.readPacket()
	if err != nil {
		return nil, nil, err
	}
	remote, err := parseKexInit(payload)
	if err != nil {
		return nil, nil, err
	}
	return eph, remote, nil
}

// negotiate picks the first client algorithm present in the server list
// (RFC 4253 §7.1).
func negotiate(client, server []string, what string) (string, error) {
	for _, c := range client {
		for _, s := range server {
			if c == s {
				return c, nil
			}
		}
	}
	return "", fmt.Errorf("sshwire: no common %s algorithm (client %v, server %v)", what, client, server)
}

// checkNegotiation validates that every algorithm class has a common
// choice within our single-suite implementation.
func checkNegotiation(clientInit, serverInit *kexInit) error {
	pairs := []struct {
		c, s []string
		what string
	}{
		{clientInit.kexAlgos, serverInit.kexAlgos, "kex"},
		{clientInit.hostKeyAlgos, serverInit.hostKeyAlgos, "host key"},
		{clientInit.ciphersC2S, serverInit.ciphersC2S, "cipher c2s"},
		{clientInit.ciphersS2C, serverInit.ciphersS2C, "cipher s2c"},
		{clientInit.macsC2S, serverInit.macsC2S, "mac c2s"},
		{clientInit.macsS2C, serverInit.macsS2C, "mac s2c"},
		{clientInit.compressionC2S, serverInit.compressionC2S, "compression c2s"},
		{clientInit.compressionS2C, serverInit.compressionS2C, "compression s2c"},
	}
	for _, p := range pairs {
		if _, err := negotiate(p.c, p.s, p.what); err != nil {
			return err
		}
	}
	return nil
}

// hostKeyBlob marshals an ed25519 public key in ssh-ed25519 wire format
// (RFC 8709 §4).
func hostKeyBlob(pub ed25519.PublicKey) []byte {
	b := wire.NewBuilder(64)
	b.Text(algoHostKey)
	b.String(pub)
	return b.Bytes()
}

// parseHostKeyBlob extracts the ed25519 public key from a host key blob.
func parseHostKeyBlob(blob []byte) (ed25519.PublicKey, error) {
	r := wire.NewReader(blob)
	if algo := r.Text(); algo != algoHostKey {
		return nil, fmt.Errorf("sshwire: unsupported host key algorithm %q", algo)
	}
	key := r.String()
	if r.Err() != nil || len(key) != ed25519.PublicKeySize {
		return nil, errors.New("sshwire: malformed ssh-ed25519 host key blob")
	}
	return ed25519.PublicKey(append([]byte(nil), key...)), nil
}

// signatureBlob marshals an ed25519 signature in SSH wire format
// (RFC 8709 §6).
func signatureBlob(sig []byte) []byte {
	b := wire.NewBuilder(96)
	b.Text(algoHostKey)
	b.String(sig)
	return b.Bytes()
}

func parseSignatureBlob(blob []byte) ([]byte, error) {
	r := wire.NewReader(blob)
	if algo := r.Text(); algo != algoHostKey {
		return nil, fmt.Errorf("sshwire: unsupported signature algorithm %q", algo)
	}
	sig := r.String()
	if r.Err() != nil || len(sig) != ed25519.SignatureSize {
		return nil, errors.New("sshwire: malformed ssh-ed25519 signature blob")
	}
	return append([]byte(nil), sig...), nil
}

// exchangeHash computes H for curve25519-sha256 (RFC 5656 §4, RFC 8731).
func exchangeHash(clientVersion, serverVersion string, clientKexInit, serverKexInit, hostKey, qC, qS, sharedSecret []byte) []byte {
	b := wire.NewBuilder(1024)
	b.Text(clientVersion)
	b.Text(serverVersion)
	b.String(clientKexInit)
	b.String(serverKexInit)
	b.String(hostKey)
	b.String(qC)
	b.String(qS)
	b.MPIntBytes(sharedSecret)
	sum := sha256.Sum256(b.Bytes())
	return sum[:]
}

// deriveKey produces key material per RFC 4253 §7.2:
// K1 = HASH(K || H || letter || session_id); Kn = HASH(K || H || K1..Kn-1).
func deriveKey(sharedSecret, exchangeHash, sessionID []byte, letter byte, length int) []byte {
	km := wire.NewBuilder(64)
	km.MPIntBytes(sharedSecret)
	kPrefix := append([]byte(nil), km.Bytes()...)

	h := sha256.New()
	h.Write(kPrefix)
	h.Write(exchangeHash)
	h.Write([]byte{letter})
	h.Write(sessionID)
	out := h.Sum(nil)
	for len(out) < length {
		h = sha256.New()
		h.Write(kPrefix)
		h.Write(exchangeHash)
		h.Write(out)
		out = h.Sum(out)
	}
	return out[:length]
}

// deriveDirection builds one direction's keys. clientToServer selects the
// letter set ('A','C','E' for client→server; 'B','D','F' for the reverse).
func deriveDirection(sharedSecret, h, sessionID []byte, clientToServer bool) keys {
	ivL, keyL, macL := byte('A'), byte('C'), byte('E')
	if !clientToServer {
		ivL, keyL, macL = 'B', 'D', 'F'
	}
	return keys{
		iv:     deriveKey(sharedSecret, h, sessionID, ivL, aesBlockSize),
		key:    deriveKey(sharedSecret, h, sessionID, keyL, 16), // aes128
		macKey: deriveKey(sharedSecret, h, sessionID, macL, sha256.Size),
	}
}

// generateECDH creates an ephemeral X25519 key pair.
func generateECDH() (*ecdh.PrivateKey, error) {
	return ecdh.X25519().GenerateKey(rand.Reader)
}

// ecdhShared computes the X25519 shared secret with the peer's public
// point.
func ecdhShared(priv *ecdh.PrivateKey, peerPoint []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPoint)
	if err != nil {
		return nil, fmt.Errorf("sshwire: invalid peer curve25519 point: %w", err)
	}
	secret, err := priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("sshwire: computing shared secret: %w", err)
	}
	return secret, nil
}
