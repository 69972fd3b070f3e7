package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/tlsconf"
)

// TestRemoteTLSCLI drives every -remote subcommand against an mTLS szd
// with the dev CA's files passed as -tls-ca/-tls-cert/-tls-key: each
// must answer as the in-process run does. Without a client certificate
// the daemon refuses the connection.
func TestRemoteTLSCLI(t *testing.T) {
	files, err := tlsconf.DevCertificates(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := tlsconf.Server(files.ServerCert, files.ServerKey, files.CACert)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(server.New(server.Config{}).Handler())
	ts.TLS = cfg
	ts.StartTLS()
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "https://")
	tlsArgs := []string{"-remote", addr, "-tls-ca", files.CACert, "-tls-cert", files.ClientCert, "-tls-key", files.ClientKey}
	remote := func(args ...string) []string { return append(append([]string(nil), tlsArgs...), args...) }

	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	file := func(name string) string { return filepath.Join(dir, name) }
	same := func(what, a, b string) {
		t.Helper()
		ab, _ := os.ReadFile(a)
		bb, err := os.ReadFile(b)
		if err != nil || len(ab) == 0 || !bytes.Equal(ab, bb) {
			t.Fatalf("%s over TLS differs from local (%d vs %d bytes, %v)", what, len(bb), len(ab), err)
		}
	}

	cargs := []string{"-codec", "blocked", "-dims", "16,20,12", "-dtype", "f32", "-abs", "1e-3", "-slab", "4", "-streams", "4"}
	if err := cmdCompress(append(append([]string(nil), cargs...), in, file("local.szb"))); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress(remote(append(cargs, in, file("remote.szb"))...)); err != nil {
		t.Fatal(err)
	}
	same("compress", file("local.szb"), file("remote.szb"))

	if err := cmdDecompress([]string{file("local.szb"), file("local.f32")}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress(remote(file("local.szb"), file("remote.f32"))); err != nil {
		t.Fatal(err)
	}
	same("decompress", file("local.f32"), file("remote.f32"))

	if err := cmdDecompress([]string{"-slab", "1-2", file("local.szb"), file("local_slab.f32")}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress(remote("-slab", "1-2", file("local.szb"), file("remote_slab.f32"))); err != nil {
		t.Fatal(err)
	}
	same("slab decompress", file("local_slab.f32"), file("remote_slab.f32"))

	localInspect := captureStdout(t, func() error { return cmdInspect([]string{"-json", file("local.szb")}) })
	remoteInspect := captureStdout(t, func() error { return cmdInspect(remote("-json", file("local.szb"))) })
	if localInspect != remoteInspect {
		t.Fatalf("inspect over TLS:\n%s\nlocal:\n%s", remoteInspect, localInspect)
	}
	localCodecs := captureStdout(t, func() error { return cmdCodecs(nil) })
	remoteCodecs := captureStdout(t, func() error { return cmdCodecs(remote()) })
	if localCodecs != remoteCodecs {
		t.Fatalf("codecs over TLS %q, local %q", remoteCodecs, localCodecs)
	}

	// The daemon requires a client certificate: the CA alone is refused.
	if err := cmdCodecs([]string{"-remote", addr, "-tls-ca", files.CACert}); err == nil {
		t.Fatal("mTLS daemon accepted a client without a certificate")
	}
}
