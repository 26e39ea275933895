package validate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lasagne/internal/core/cache"
	"lasagne/internal/opt"
)

// Bundle kinds.
const (
	// KindPass: a checkpoint violation attributed to one opt pass on one
	// function. Carries the module shape and the exact pre-pass body, so
	// ReplayPass reproduces the failure with nothing but the bundle.
	KindPass = "pass"
	// KindDifferential: an output mismatch between the x86 input and the
	// translated Arm64 object. Carries the marshaled input object and the
	// diverging seeds; core.ReplayBundle re-translates and re-compares.
	KindDifferential = "differential"
)

// Bundle is a self-contained repro artifact written to -repro-dir when a
// validation checkpoint or the differential oracle fails. The JSON form is
// deliberately plain (byte fields base64-encoded by encoding/json) so a
// bundle can be attached to a bug report and replayed on another machine.
type Bundle struct {
	Kind string `json:"kind"`
	// Fingerprint records the pipeline version and config fingerprint of
	// the run that produced the bundle, so a replay on a different build is
	// flagged rather than silently diverging.
	Fingerprint string `json:"fingerprint"`
	Failure     string `json:"failure"` // original failure message (includes seed/pass)

	// Pass-kind payload.
	Func       string   `json:"func,omitempty"`
	Pass       string   `json:"pass,omitempty"`
	Opts       Opts     `json:"opts"`                 // checkpoint options at the failing checkpoint
	Violations []string `json:"violations,omitempty"` // ir.VerifyAllFunc on the post-pass body
	Shape      []byte   `json:"shape,omitempty"`      // cache.EncodeModuleShape
	PreBody    []byte   `json:"pre_body,omitempty"`   // cache.EncodeBody of the pre-pass body
	Reduced    []byte   `json:"reduced,omitempty"`    // minimized pre-pass body, when the reducer ran

	// Differential-kind payload.
	Input    []byte   `json:"input,omitempty"` // obj.File.Marshal of the x86 input
	Seeds    []int64  `json:"seeds,omitempty"` // diverging data seeds
	Passes   []string `json:"passes,omitempty"`
	MaxSteps int64    `json:"max_steps,omitempty"`
	NThreads int      `json:"nthreads,omitempty"`
}

// Write stores the bundle under dir, named by kind, subject and a content
// hash, and returns the path.
func (b *Bundle) Write(dir string) (string, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	subject := b.Func
	if b.Pass != "" {
		subject += "-" + b.Pass
	}
	if subject == "" {
		subject = "module"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", b.Kind, subject, hex.EncodeToString(sum[:6])))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a bundle written by Write.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &Bundle{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("validate: corrupt bundle %s: %w", path, err)
	}
	if b.Kind != KindPass && b.Kind != KindDifferential {
		return nil, fmt.Errorf("validate: bundle %s has unknown kind %q", path, b.Kind)
	}
	return b, nil
}

// ReplayPass replays a pass-kind bundle standalone: it rebuilds the
// skeleton module from the recorded shape, decodes the pre-pass body into
// the failing function, re-runs the single culprit pass, and re-runs the
// checkpoint that originally fired. The first return value is the
// reproduced failure (nil when the bundle no longer reproduces — e.g. the
// pass has since been fixed); the second reports problems with the bundle
// itself.
func ReplayPass(b *Bundle) (failure, err error) {
	if b.Kind != KindPass {
		return nil, fmt.Errorf("validate: ReplayPass on a %q bundle", b.Kind)
	}
	m, err := cache.DecodeModuleShape(b.Shape)
	if err != nil {
		return nil, err
	}
	f := m.Func(b.Func)
	if f == nil {
		return nil, fmt.Errorf("validate: bundle function @%s missing from its own shape", b.Func)
	}
	blocks, err := cache.DecodeBody(f, b.PreBody)
	if err != nil {
		return nil, err
	}
	f.External = false
	f.RestoreBody(blocks)
	if pre := CheckFunc(f, b.Opts); pre != nil {
		return nil, fmt.Errorf("validate: bundle pre-pass body is not checkpoint-clean: %w", pre)
	}
	if _, err := opt.ApplyPass(f, b.Pass); err != nil {
		return nil, err
	}
	return CheckFunc(f, b.Opts), nil
}
