package sshwire

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"

	"honeyfarm/internal/wire"
)

// ErrAuthFailed is returned when the server rejects all our credentials.
var ErrAuthFailed = errors.New("sshwire: authentication failed")

// ClientConfig configures an SSH client connection — the role the
// simulated attackers play against the honeypot.
type ClientConfig struct {
	User     string
	Password string
	// Version is the identification string the honeypot will record as
	// the "client SSH version" (Section 4); defaults to a libssh-like
	// string typical of scanning tools.
	Version string
	// HostKeyCallback, when set, can reject the server's ed25519 host
	// key. The default accepts any key (attackers do not verify
	// honeypots). For RSA-keyed servers use RawHostKeyCallback.
	HostKeyCallback func(key ed25519.PublicKey) error
	// RawHostKeyCallback, when set, can reject any host key by its
	// negotiated algorithm and wire-format blob.
	RawHostKeyCallback func(algo string, blob []byte) error
	// KexAlgos and HostKeyAlgos override the offered algorithm lists
	// (preference order); nil offers the full supported suite.
	KexAlgos     []string
	HostKeyAlgos []string
	// SkipAuth performs the handshake but no authentication attempt,
	// modeling NO_CRED scanners that complete the TCP+SSH handshake and
	// leave without sending credentials.
	SkipAuth bool
}

// ClientConn is an established SSH client connection.
type ClientConn struct {
	t   *transport
	mux *mux

	serverVersion string
}

// ServerVersion returns the server's identification string.
func (c *ClientConn) ServerVersion() string { return c.serverVersion }

// NewClientConn runs the client handshake over nc. If cfg.SkipAuth is
// set, the returned conn is nil and err is nil after a successful
// transport handshake; the caller is expected to close nc.
func NewClientConn(nc net.Conn, cfg *ClientConfig) (*ClientConn, error) {
	version := cfg.Version
	if version == "" {
		version = "SSH-2.0-libssh2_1.8.0"
	}
	t := newTransport(nc)
	fail := func(err error) (*ClientConn, error) {
		t.Close()
		return nil, err
	}
	if err := clientKex(t, cfg, version); err != nil {
		return fail(err)
	}
	if cfg.SkipAuth {
		// The server's NEWKEYS arrived with its KEX reply, so no read has
		// flushed ours, and the caller may close the socket next.
		if err := t.flush(); err != nil {
			return fail(err)
		}
		return &ClientConn{t: t, serverVersion: t.remoteVersion}, nil
	}
	if err := clientAuth(t, cfg); err != nil {
		return fail(err)
	}
	return &ClientConn{t: t, mux: newMux(t), serverVersion: t.remoteVersion}, nil
}

// checkHostKey applies the configured host-key acceptance policy.
func checkHostKey(cfg *ClientConfig, algo string, blob []byte) error {
	if cfg.RawHostKeyCallback != nil {
		// blob aliases the transport's read buffer; a callback may keep it.
		if err := cfg.RawHostKeyCallback(algo, bytes.Clone(blob)); err != nil {
			return err
		}
	}
	if cfg.HostKeyCallback != nil && algo == algoHostKey {
		hostKey, err := parseHostKeyBlob(blob)
		if err != nil {
			return err
		}
		return cfg.HostKeyCallback(hostKey)
	}
	return nil
}

func clientKex(t *transport, cfg *ClientConfig, version string) error {
	clientInit := localKexInit(cfg.KexAlgos, cfg.HostKeyAlgos)
	eph, serverInit, err := openKex(t, version, clientInit, true)
	if err != nil {
		return err
	}
	if err := checkNegotiation(clientInit, serverInit); err != nil {
		return err
	}
	kexAlgo, err := negotiate(clientInit.kexAlgos, serverInit.kexAlgos, "kex")
	if err != nil {
		return err
	}
	hostAlgo, err := negotiate(clientInit.hostKeyAlgos, serverInit.hostKeyAlgos, "host key")
	if err != nil {
		return err
	}

	var secret, h []byte
	switch kexAlgo {
	case algoKex, algoKexLibC:
		secret, h, err = clientKexECDH(t, cfg, eph, hostAlgo, clientInit, serverInit)
	case algoKexDH14:
		secret, h, err = clientKexDH(t, cfg, hostAlgo, clientInit, serverInit)
	default:
		err = fmt.Errorf("sshwire: negotiated unsupported kex %q", kexAlgo)
	}
	if err != nil {
		return err
	}
	return finishKex(t, secret, h, true)
}

// clientKexECDH runs curve25519-sha256 from the client side, with the
// ephemeral key openKex made for this connection.
func clientKexECDH(t *transport, cfg *ClientConfig, priv *ecdh.PrivateKey, hostAlgo string, clientInit, serverInit *kexInit) (secret, h []byte, err error) {
	qC := priv.PublicKey().Bytes()
	b := wire.NewBuilder(64)
	b.Byte(msgKexECDHInit).String(qC)
	if err := t.writePacket(b.Bytes()); err != nil {
		return nil, nil, err
	}

	payload, err := t.readPacket()
	if err != nil {
		return nil, nil, err
	}
	if payload[0] != msgKexECDHReply {
		return nil, nil, fmt.Errorf("sshwire: expected KEX_ECDH_REPLY, got %d", payload[0])
	}
	r := wire.NewReader(payload[1:])
	hostKeyRaw := r.String()
	qS := r.String()
	sigRaw := r.String()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if err := checkHostKey(cfg, hostAlgo, hostKeyRaw); err != nil {
		t.sendDisconnect(disconnectHostKeyNotVerifiable, "host key rejected")
		return nil, nil, err
	}
	secret, err = ecdhShared(priv, qS)
	if err != nil {
		return nil, nil, err
	}
	h = exchangeHash(t.localVersion, t.remoteVersion, clientInit.raw, serverInit.raw, hostKeyRaw, qC, qS, secret)
	if err := verifyHostSignature(hostAlgo, hostKeyRaw, sigRaw, h); err != nil {
		t.sendDisconnect(disconnectHostKeyNotVerifiable, "signature verification failed")
		return nil, nil, err
	}
	return secret, h, nil
}

func clientAuth(t *transport, cfg *ClientConfig) error {
	b := wire.NewBuilder(32)
	b.Byte(msgServiceRequest).Text(serviceUserauth)
	if err := t.writePacket(b.Bytes()); err != nil {
		return err
	}
	payload, err := t.readPacket()
	if err != nil {
		return err
	}
	if payload[0] != msgServiceAccept {
		return fmt.Errorf("sshwire: expected SERVICE_ACCEPT, got %d", payload[0])
	}

	ab := wire.NewBuilder(128)
	ab.Byte(msgUserauthRequest).Text(cfg.User).Text(serviceConnection).
		Text("password").Bool(false).Text(cfg.Password)
	if err := t.writePacket(ab.Bytes()); err != nil {
		return err
	}
	for {
		payload, err := t.readPacket()
		if err != nil {
			return err
		}
		switch payload[0] {
		case msgUserauthSuccess:
			return nil
		case msgUserauthFailure:
			return ErrAuthFailed
		case msgUserauthBanner:
			continue
		default:
			return fmt.Errorf("sshwire: unexpected auth message %d", payload[0])
		}
	}
}

// TryPasswords attempts each password in order over a fresh userauth
// request, returning the index of the accepted password, or -1 with
// ErrAuthFailed (or a transport error, e.g. the server's 3-strike
// disconnect). The connection must have been created with SkipAuth.
func (c *ClientConn) TryPasswords(user string, passwords []string) (int, error) {
	if c.mux != nil {
		return -1, errors.New("sshwire: already authenticated")
	}
	b := wire.NewBuilder(32)
	b.Byte(msgServiceRequest).Text(serviceUserauth)
	if err := c.t.writePacket(b.Bytes()); err != nil {
		return -1, err
	}
	payload, err := c.t.readPacket()
	if err != nil {
		return -1, err
	}
	if payload[0] != msgServiceAccept {
		return -1, fmt.Errorf("sshwire: expected SERVICE_ACCEPT, got %d", payload[0])
	}
	for i, pw := range passwords {
		ab := wire.NewBuilder(128)
		ab.Byte(msgUserauthRequest).Text(user).Text(serviceConnection).
			Text("password").Bool(false).Text(pw)
		if err := c.t.writePacket(ab.Bytes()); err != nil {
			return -1, err
		}
	reply:
		for {
			payload, err := c.t.readPacket()
			if err != nil {
				return -1, err
			}
			switch payload[0] {
			case msgUserauthSuccess:
				c.mux = newMux(c.t)
				return i, nil
			case msgUserauthFailure:
				break reply
			case msgUserauthBanner:
				continue
			default:
				return -1, fmt.Errorf("sshwire: unexpected auth message %d", payload[0])
			}
		}
	}
	return -1, ErrAuthFailed
}

// OpenSession opens a session channel.
func (c *ClientConn) OpenSession() (*Channel, error) {
	if c.mux == nil {
		return nil, errors.New("sshwire: connection not authenticated")
	}
	ch := c.mux.newChannel()
	b := wire.NewBuilder(64)
	b.Byte(msgChannelOpen).Text(channelTypeSession).Uint32(ch.localID).
		Uint32(defaultWindow).Uint32(defaultMaxPacket)
	if err := c.t.writePacket(b.Bytes()); err != nil {
		return nil, err
	}
	ok, err := ch.awaitReply()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("sshwire: session channel open rejected")
	}
	return ch, nil
}

// RequestPTY asks for a pseudo-terminal on the session channel.
func RequestPTY(ch *Channel, term string, cols, rows uint32) error {
	ok, err := ch.SendRequest("pty-req", true, func(b *wire.Builder) {
		b.Text(term).Uint32(cols).Uint32(rows).Uint32(0).Uint32(0).Text("")
	})
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("sshwire: pty-req rejected")
	}
	return nil
}

// RequestShell starts an interactive shell on the session channel.
func RequestShell(ch *Channel) error {
	ok, err := ch.SendRequest("shell", true, nil)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("sshwire: shell request rejected")
	}
	return nil
}

// RequestExec runs a single command on the session channel.
func RequestExec(ch *Channel, command string) error {
	ok, err := ch.SendRequest("exec", true, func(b *wire.Builder) {
		b.Text(command)
	})
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("sshwire: exec request rejected")
	}
	return nil
}

// Close tears down the connection.
func (c *ClientConn) Close() error {
	c.t.sendDisconnect(disconnectByApplication, "closed")
	return c.t.Close()
}
