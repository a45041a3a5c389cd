package sshwire

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rsa"
	"errors"
	"fmt"
	"net"
	"sync"

	"honeyfarm/internal/wire"
)

// AuthAttempt records one password authentication attempt, successful or
// not. The honeypot logs every attempt (the paper's FAIL_LOG category is
// built from sessions whose attempts all fail).
type AuthAttempt struct {
	User     string
	Password string
	Method   string
	Accepted bool
}

// ServerConfig configures an SSH honeypot endpoint.
type ServerConfig struct {
	// HostKey signs the key exchange. Required.
	HostKey ed25519.PrivateKey
	// RSAHostKey optionally adds an rsa-sha2-256 host key for clients
	// that do not speak ssh-ed25519.
	RSAHostKey *rsa.PrivateKey
	// Version is the identification string, e.g. "SSH-2.0-OpenSSH_7.9p1".
	Version string
	// PasswordCallback decides whether a password is accepted. Required.
	PasswordCallback func(user, password string) bool
	// AuthLogCallback observes every authentication attempt.
	AuthLogCallback func(AuthAttempt)
	// MaxAuthTries disconnects the client after this many failed
	// attempts. Cowrie's default — and the behavior the paper observes
	// ("terminated after 3 unsuccessful tries") — is 3.
	MaxAuthTries int
	// Banner, when set, is sent as a pre-auth userauth banner.
	Banner string
}

// ServerConn is an accepted, authenticated SSH server connection.
type ServerConn struct {
	t   *transport
	mux *mux

	user          string
	clientVersion string

	closeOnce sync.Once
	closeErr  error
}

// User returns the authenticated username.
func (c *ServerConn) User() string { return c.user }

// ClientVersion returns the client's identification string.
func (c *ServerConn) ClientVersion() string { return c.clientVersion }

// NewServerConn runs the SSH server handshake (version exchange, key
// exchange, authentication) over nc. On success the returned ServerConn
// accepts session channels. On failure nc is closed.
func NewServerConn(nc net.Conn, cfg *ServerConfig) (*ServerConn, error) {
	if cfg.HostKey == nil || cfg.PasswordCallback == nil {
		nc.Close()
		return nil, errors.New("sshwire: ServerConfig requires HostKey and PasswordCallback")
	}
	version := cfg.Version
	if version == "" {
		version = "SSH-2.0-OpenSSH_7.9p1 Debian-10+deb10u2"
	}
	maxTries := cfg.MaxAuthTries
	if maxTries <= 0 {
		maxTries = 3
	}

	t := newTransport(nc)
	fail := func(err error) (*ServerConn, error) {
		t.Close()
		return nil, err
	}
	if err := serverKex(t, cfg, version); err != nil {
		return fail(err)
	}
	user, err := serverAuth(t, cfg, maxTries)
	if err != nil {
		return fail(err)
	}
	return &ServerConn{
		t:             t,
		mux:           newMux(t), // ends the hold: USERAUTH_SUCCESS leaves here
		user:          user,
		clientVersion: t.remoteVersion,
	}, nil
}

// serverKex exchanges identification strings, then negotiates and runs
// the key exchange: curve25519-sha256 or diffie-hellman-group14-sha256,
// signed with the honeypot's ed25519 or RSA host key as negotiated.
func serverKex(t *transport, cfg *ServerConfig, version string) error {
	hostKeyAlgos := []string{algoHostKey}
	if cfg.RSAHostKey != nil {
		hostKeyAlgos = append(hostKeyAlgos, algoHostKeyRSA)
	}
	serverInit := localKexInit(nil, hostKeyAlgos)
	eph, clientInit, err := openKex(t, version, serverInit, false)
	if err != nil {
		return err
	}
	if err := checkNegotiation(clientInit, serverInit); err != nil {
		t.sendDisconnect(disconnectKexFailed, err.Error())
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
	var signer HostSigner = NewEd25519Signer(cfg.HostKey)
	if hostAlgo == algoHostKeyRSA {
		signer = NewRSASigner(cfg.RSAHostKey)
	}

	var secret, h []byte
	switch kexAlgo {
	case algoKex, algoKexLibC:
		secret, h, err = serverKexECDH(t, signer, eph, clientInit, serverInit)
	case algoKexDH14:
		secret, h, err = serverKexDH(t, signer, clientInit, serverInit)
	default:
		err = fmt.Errorf("sshwire: negotiated unsupported kex %q", kexAlgo)
	}
	if err != nil {
		return err
	}
	return finishKex(t, secret, h, false)
}

// serverKexECDH runs curve25519-sha256 after KEXINIT exchange, with the
// ephemeral key openKex made for this connection.
func serverKexECDH(t *transport, signer HostSigner, priv *ecdh.PrivateKey, clientInit, serverInit *kexInit) (secret, h []byte, err error) {
	payload, err := t.readPacket()
	if err != nil {
		return nil, nil, err
	}
	if payload[0] != msgKexECDHInit {
		return nil, nil, fmt.Errorf("sshwire: expected KEX_ECDH_INIT, got %d", payload[0])
	}
	r := wire.NewReader(payload[1:])
	qC := r.String()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}

	qS := priv.PublicKey().Bytes()
	secret, err = ecdhShared(priv, qC)
	if err != nil {
		t.sendDisconnect(disconnectKexFailed, err.Error())
		return nil, nil, err
	}

	pubBlob := signer.PublicBlob()
	h = exchangeHash(t.remoteVersion, t.localVersion, clientInit.raw, serverInit.raw, pubBlob, qC, qS, secret)
	sig, err := signer.Sign(h)
	if err != nil {
		return nil, nil, err
	}

	b := wire.NewBuilder(1024)
	b.Byte(msgKexECDHReply).String(pubBlob).String(qS).String(sig)
	if err := t.writePacket(b.Bytes()); err != nil {
		return nil, nil, err
	}
	return secret, h, nil
}

// finishKex derives directional keys from the shared secret, exchanges
// NEWKEYS, and activates the ciphers. client selects the letter sets.
func finishKex(t *transport, secret, h []byte, client bool) error {
	sessionID := h // first (and only) kex
	writeDir := deriveDirection(secret, h, sessionID, client)
	readDir := deriveDirection(secret, h, sessionID, !client)
	if err := t.prepareKeys(writeDir, readDir); err != nil {
		return err
	}
	nb := wire.NewBuilder(1)
	nb.Byte(msgNewKeys)
	if err := t.writePacket(nb.Bytes()); err != nil {
		return err
	}
	t.activateWrite()
	payload, err := t.readPacket()
	if err != nil {
		return err
	}
	if payload[0] != msgNewKeys {
		return fmt.Errorf("sshwire: expected NEWKEYS, got %d", payload[0])
	}
	t.activateRead()
	return nil
}

// serverAuth handles the ssh-userauth service: password only, bounded
// tries, every attempt logged.
func serverAuth(t *transport, cfg *ServerConfig, maxTries int) (string, error) {
	payload, err := t.readPacket()
	if err != nil {
		return "", err
	}
	if payload[0] != msgServiceRequest {
		return "", fmt.Errorf("sshwire: expected SERVICE_REQUEST, got %d", payload[0])
	}
	r := wire.NewReader(payload[1:])
	if svc := r.Text(); svc != serviceUserauth {
		t.sendDisconnect(disconnectServiceNotAvailable, "service not available")
		return "", fmt.Errorf("sshwire: unexpected service %q", svc)
	}
	b := wire.NewBuilder(32)
	b.Byte(msgServiceAccept).Text(serviceUserauth)
	if err := t.writePacket(b.Bytes()); err != nil {
		return "", err
	}
	if cfg.Banner != "" {
		bb := wire.NewBuilder(len(cfg.Banner) + 16)
		bb.Byte(msgUserauthBanner).Text(cfg.Banner).Text("")
		if err := t.writePacket(bb.Bytes()); err != nil {
			return "", err
		}
	}

	failures := 0
	for {
		payload, err := t.readPacket()
		if err != nil {
			return "", err
		}
		if payload[0] != msgUserauthRequest {
			return "", fmt.Errorf("sshwire: expected USERAUTH_REQUEST, got %d", payload[0])
		}
		r := wire.NewReader(payload[1:])
		user := r.Text()
		service := r.Text()
		method := r.Text()
		if err := r.Err(); err != nil {
			return "", err
		}
		if service != serviceConnection {
			t.sendDisconnect(disconnectServiceNotAvailable, "unknown service")
			return "", fmt.Errorf("sshwire: userauth for unknown service %q", service)
		}
		switch method {
		case "password":
			r.Bool() // FALSE: not a password change
			password := r.Text()
			if err := r.Err(); err != nil {
				return "", err
			}
			ok := cfg.PasswordCallback(user, password)
			if cfg.AuthLogCallback != nil {
				cfg.AuthLogCallback(AuthAttempt{User: user, Password: password, Method: method, Accepted: ok})
			}
			if ok {
				sb := wire.NewBuilder(1)
				sb.Byte(msgUserauthSuccess)
				if err := t.writePacket(sb.Bytes()); err != nil {
					return "", err
				}
				return user, nil
			}
			failures++
		case "none":
			if cfg.AuthLogCallback != nil {
				cfg.AuthLogCallback(AuthAttempt{User: user, Method: method})
			}
			// "none" probing does not consume a try (OpenSSH behavior).
		default:
			if cfg.AuthLogCallback != nil {
				cfg.AuthLogCallback(AuthAttempt{User: user, Method: method})
			}
			failures++
		}
		if failures >= maxTries {
			t.sendDisconnect(disconnectNoMoreAuthMethods, "Too many authentication failures")
			return "", fmt.Errorf("sshwire: %d failed authentication attempts", failures)
		}
		fb := wire.NewBuilder(32)
		fb.Byte(msgUserauthFailure).NameList([]string{"password"}).Bool(false)
		if err := t.writePacket(fb.Bytes()); err != nil {
			return "", err
		}
	}
}

// AcceptSession waits for the client to open a session channel.
func (c *ServerConn) AcceptSession() (*Channel, error) {
	ch, ok := <-c.mux.accept
	if !ok {
		return nil, c.mux.errLocked()
	}
	return ch, nil
}

// HoldWrites queues everything written from here on — channel data, exit
// status, EOF, CLOSE — until Close, whose DISCONNECT takes it all to the
// socket in one write. It is for the end of a session, when nothing the
// server sends waits for an answer: a channel write that runs out of
// window, or a request that wants a reply, flushes first.
func (c *ServerConn) HoldWrites() { c.t.hold() }

// Close tears down the connection. The disconnect notice and anything
// held before it leave together. Later calls return the first result, so
// a deferred Close behind an explicit one sends nothing.
func (c *ServerConn) Close() error {
	c.closeOnce.Do(func() {
		c.t.sendDisconnect(disconnectByApplication, "closed")
		c.closeErr = c.t.Close()
	})
	return c.closeErr
}
