package fault

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"partree/internal/wire"
)

// On-disk layout of a DiskStore directory:
//
//	chain-<rank>.ckpt   append-only frame chain, one file per world rank
//	MANIFEST.json       atomically replaced after every acknowledged save
//
// Each frame is length-prefixed and CRC32C-framed:
//
//	magic   [4]byte  "PTCK"
//	len     uint32   payload length (little-endian)
//	crc     uint32   CRC32C (Castagnoli) of the payload
//	payload []byte   seq u64 | idLen u32 | id | rank u32 | nPart u32 |
//	                 part u32 × nPart | metaLen u32 | meta | dataLen u32 | data
//
// The manifest records, per chain, how many bytes and frames have been
// durably acknowledged: a write that tore mid-frame (power loss, injected
// TornWrite) leaves bytes past the manifest mark, which reload ignores —
// the frame simply never happened, and the commit rule falls back to the
// previous consistent cut. A frame the manifest acknowledges but whose
// CRC no longer matches (bit rot, injected BitFlip) truncates that rank's
// chain at the last good frame on reload, with the corruption recorded in
// Notes; again the commit rule lands on the newest cut that survives.

const (
	frameMagic     = "PTCK"
	frameHdrLen    = 12      // magic + len + crc
	maxFramePay    = 1 << 30 // sanity bound on a single payload
	maxFrameParts  = 1 << 20 // plausibility cap on participant count; a full payload holds 2^28
	manifestName   = "MANIFEST.json"
	manifestFormat = "partree-checkpoint-manifest"
)

// Typed decode errors. The frame/manifest decoders return these (wrapped
// with position context) on hostile or truncated input — never a panic.
var (
	ErrBadMagic    = errors.New("checkpoint frame: bad magic")
	ErrTruncated   = errors.New("checkpoint frame: truncated")
	ErrFrameSize   = errors.New("checkpoint frame: implausible length")
	ErrChecksum    = errors.New("checkpoint frame: CRC32C mismatch")
	ErrBadFrame    = errors.New("checkpoint frame: malformed payload")
	ErrBadManifest = errors.New("checkpoint manifest: malformed")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifest is the JSON chain index. Chains is keyed by decimal rank.
type manifest struct {
	Format  string                `json:"format"`
	Version int                   `json:"version"`
	Seq     int64                 `json:"seq"`
	Chains  map[string]*chainMark `json:"chains"`
}

type chainMark struct {
	Bytes  int64 `json:"bytes"`
	Frames int64 `json:"frames"`
}

// DiskStats summarizes durable I/O separately from the logical
// StoreStats: bytes that actually crossed the disk boundary, plus what
// the corruption injectors and the reload scrubber saw.
type DiskStats struct {
	WrittenB      int64 // frame + manifest bytes written
	ReadB         int64 // frame bytes read back at Open
	Syncs         int64 // fsync calls
	TornWrites    int64 // injected torn writes
	BitFlips      int64 // injected bit flips
	CorruptFrames int64 // frames rejected at reload (CRC/decode failures)
}

// DiskStore is the durable Store: per-rank CRC32C-framed chain files plus
// an atomically replaced manifest, surviving a hard process crash. All
// methods are safe for concurrent use. Queries are served from an
// in-memory mirror that is rebuilt from disk by OpenDiskStore.
type DiskStore struct {
	mu     sync.Mutex
	dir    string
	mem    *MemStore
	man    manifest
	files  map[int]*os.File
	armed  []*armedDiskFault
	saves  map[int]int
	dstats DiskStats
	notes  []string
}

type armedDiskFault struct {
	f     Fault
	fired bool
}

// OpenDiskStore opens (creating if absent) a durable checkpoint store in
// dir. Existing chains are reloaded up to their manifest marks; frames
// that fail their CRC or decode truncate that rank's chain at the last
// good frame, recorded in Notes. A malformed manifest is a hard error —
// the directory is not a checkpoint store.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fault: open disk store: %w", err)
	}
	s := &DiskStore{
		dir:   dir,
		mem:   NewStore(),
		man:   manifest{Format: manifestFormat, Version: 1, Chains: make(map[string]*chainMark)},
		files: make(map[int]*os.File),
		saves: make(map[int]int),
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fault: open disk store: %w", err)
	}
	man, err := decodeManifest(raw)
	if err != nil {
		return nil, err
	}
	s.man = *man
	var all []*Checkpoint
	maxSeq := man.Seq
	for key, mark := range man.Chains {
		var rank int
		if _, err := fmt.Sscanf(key, "%d", &rank); err != nil || rank < 0 {
			return nil, fmt.Errorf("%w: chain key %q", ErrBadManifest, key)
		}
		raw, err := os.ReadFile(s.chainPath(rank))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("fault: open disk store: %w", err)
		}
		if int64(len(raw)) > mark.Bytes {
			raw = raw[:mark.Bytes] // unacknowledged (torn) tail: never happened
		}
		cps, n, derr := decodeChain(raw)
		s.dstats.ReadB += n
		if derr != nil {
			s.dstats.CorruptFrames++
			s.notes = append(s.notes,
				fmt.Sprintf("rank %d chain: frame %d at offset %d rejected: %v (chain truncated there)",
					rank, len(cps), n, derr))
			// The on-disk tail past the corrupt frame is unusable: re-mark
			// the chain at the good prefix so future appends land there.
			s.man.Chains[key] = &chainMark{Bytes: n, Frames: int64(len(cps))}
		}
		for _, cp := range cps {
			if cp.seq > maxSeq {
				maxSeq = cp.seq
			}
		}
		all = append(all, cps...)
	}
	// Rebuild the mirror in global save order; restore-time reads must not
	// count as saves, so the chains are populated directly.
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, cp := range all {
		s.mem.chains[cp.Rank] = append(s.mem.chains[cp.Rank], cp)
		s.mem.log = append(s.mem.log, cp)
	}
	s.mem.seq = maxSeq
	s.man.Seq = maxSeq
	return s, nil
}

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }

// Durable marks this store as backed by stable storage; the builders use
// it to decide whether checkpoint traffic is charged to the disk cost
// class.
func (s *DiskStore) Durable() bool { return true }

// Notes returns human-readable corruption findings from reload.
func (s *DiskStore) Notes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.notes...)
}

// DiskIO returns cumulative durable-I/O statistics.
func (s *DiskStore) DiskIO() DiskStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dstats
}

// SetFaultPlan arms the plan's disk faults (TornWrite, BitFlip) on this
// store; kinds the message-passing runtime owns are ignored so one plan
// can be handed to both. Fault.N counts the rank's Save calls, 1-based.
func (s *DiskStore) SetFaultPlan(plan *Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = nil
	if plan == nil {
		return
	}
	for _, f := range plan.Faults {
		if !f.Kind.DiskFault() {
			continue
		}
		if f.N < 1 {
			panic(fmt.Sprintf("fault: disk fault needs N >= 1: %v", f))
		}
		if f.Rank < 0 {
			panic(fmt.Sprintf("fault: disk fault needs Rank >= 0: %v", f))
		}
		s.armed = append(s.armed, &armedDiskFault{f: f})
	}
}

// Close closes the chain files. The store must not be used afterwards.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = make(map[int]*os.File)
	return first
}

// Save appends cp to its rank's durable chain: frame write + fsync, then
// an atomic manifest replace acknowledging it. An armed TornWrite leaves
// a partial unacknowledged frame instead; an armed BitFlip corrupts the
// frame on disk after acknowledging it. The in-memory mirror always
// records the save — the running process saw it succeed; only a restart
// discovers what the disk really holds. I/O errors panic: a build cannot
// meaningfully continue when its stable store is gone.
func (s *DiskStore) Save(cp *Checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves[cp.Rank]++
	af := s.matchDiskFault(cp.Rank)
	s.mem.Save(cp) // assigns cp.seq
	frame := encodeFrame(cp)
	f := s.chainFile(cp.Rank)
	key := fmt.Sprintf("%d", cp.Rank)
	mark := s.man.Chains[key]
	if mark == nil {
		mark = &chainMark{}
		s.man.Chains[key] = mark
	}
	// A previous torn write may have left unacknowledged bytes; the next
	// append overwrites from the acknowledged mark.
	if af != nil && af.f.Kind == TornWrite {
		n := len(frame) / 2
		s.mustWrite(f, frame[:n], mark.Bytes)
		s.mustSync(f)
		s.dstats.WrittenB += int64(n)
		s.dstats.TornWrites++
		return // manifest untouched: the frame was never acknowledged
	}
	s.mustWrite(f, frame, mark.Bytes)
	if af != nil && af.f.Kind == BitFlip {
		// Flip a bit inside the payload region so the CRC must catch it.
		off := frameHdrLen + (af.f.Bit/8)%(len(frame)-frameHdrLen)
		var b [1]byte
		if _, err := f.ReadAt(b[:], mark.Bytes+int64(off)); err != nil {
			panic(fmt.Sprintf("fault: disk store read-back %s: %v", s.chainPath(cp.Rank), err))
		}
		b[0] ^= 1 << (af.f.Bit % 8)
		s.mustWrite(f, b[:], mark.Bytes+int64(off))
		s.dstats.BitFlips++
	}
	s.mustSync(f)
	s.dstats.WrittenB += int64(len(frame))
	mark.Bytes += int64(len(frame))
	mark.Frames++
	s.man.Seq = cp.seq
	s.writeManifestLocked()
}

func (s *DiskStore) matchDiskFault(rank int) *armedDiskFault {
	for _, af := range s.armed {
		if !af.fired && af.f.Rank == rank && af.f.N == s.saves[rank] {
			af.fired = true
			return af
		}
	}
	return nil
}

func (s *DiskStore) chainPath(rank int) string {
	return filepath.Join(s.dir, fmt.Sprintf("chain-%d.ckpt", rank))
}

func (s *DiskStore) chainFile(rank int) *os.File {
	if f, ok := s.files[rank]; ok {
		return f
	}
	f, err := os.OpenFile(s.chainPath(rank), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		panic(fmt.Sprintf("fault: disk store open %s: %v", s.chainPath(rank), err))
	}
	s.files[rank] = f
	return f
}

func (s *DiskStore) mustWrite(f *os.File, b []byte, off int64) {
	if _, err := f.WriteAt(b, off); err != nil {
		panic(fmt.Sprintf("fault: disk store write %s: %v", f.Name(), err))
	}
}

func (s *DiskStore) mustSync(f *os.File) {
	if err := f.Sync(); err != nil {
		panic(fmt.Sprintf("fault: disk store fsync %s: %v", f.Name(), err))
	}
	s.dstats.Syncs++
}

// writeManifestLocked atomically replaces the manifest: temp file, fsync,
// rename, directory fsync.
func (s *DiskStore) writeManifestLocked() {
	data, err := json.Marshal(&s.man)
	if err != nil {
		panic(fmt.Sprintf("fault: disk store manifest encode: %v", err))
	}
	data = append(data, '\n')
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		panic(fmt.Sprintf("fault: disk store manifest: %v", err))
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		panic(fmt.Sprintf("fault: disk store manifest write: %v", err))
	}
	s.mustSync(f)
	if err := f.Close(); err != nil {
		panic(fmt.Sprintf("fault: disk store manifest close: %v", err))
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		panic(fmt.Sprintf("fault: disk store manifest rename: %v", err))
	}
	s.dstats.WrittenB += int64(len(data))
	if d, err := os.Open(s.dir); err == nil {
		d.Sync() // best-effort: not all filesystems support directory fsync
		d.Close()
	}
}

// The query side delegates to the reloaded/live mirror.

func (s *DiskStore) Latest(rank int) *Checkpoint         { return s.mem.Latest(rank) }
func (s *DiskStore) Effective(rank int) *Checkpoint      { return s.mem.Effective(rank) }
func (s *DiskStore) EffectiveCut() *Checkpoint           { return s.mem.EffectiveCut() }
func (s *DiskStore) Get(rank int, id string) *Checkpoint { return s.mem.Get(rank, id) }
func (s *DiskStore) CountPrefix(rank int, prefix string) int {
	return s.mem.CountPrefix(rank, prefix)
}
func (s *DiskStore) Stats() StoreStats { return s.mem.Stats() }

func (s *DiskStore) String() string {
	st := s.Stats()
	d := s.DiskIO()
	return fmt.Sprintf("%s; disk %.2f MB written, %.2f MB reloaded, %d fsyncs",
		st, float64(d.WrittenB)/1e6, float64(d.ReadB)/1e6, d.Syncs)
}

// --- frame and manifest codecs ---

// encodeFrame serializes one checkpoint as a CRC32C frame.
func encodeFrame(cp *Checkpoint) []byte {
	pay := make([]byte, 0, 8+4+len(cp.ID)+4+4+4*len(cp.Participants)+4+len(cp.Meta)+4+len(cp.Data))
	pay = binary.LittleEndian.AppendUint64(pay, uint64(cp.seq))
	pay = binary.LittleEndian.AppendUint32(pay, uint32(len(cp.ID)))
	pay = append(pay, cp.ID...)
	pay = binary.LittleEndian.AppendUint32(pay, uint32(cp.Rank))
	pay = binary.LittleEndian.AppendUint32(pay, uint32(len(cp.Participants)))
	for _, p := range cp.Participants {
		pay = binary.LittleEndian.AppendUint32(pay, uint32(p))
	}
	pay = binary.LittleEndian.AppendUint32(pay, uint32(len(cp.Meta)))
	pay = append(pay, cp.Meta...)
	pay = binary.LittleEndian.AppendUint32(pay, uint32(len(cp.Data)))
	pay = append(pay, cp.Data...)

	frame := make([]byte, 0, frameHdrLen+len(pay))
	frame = append(frame, frameMagic...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(pay)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(pay, castagnoli))
	frame = append(frame, pay...)
	return frame
}

// decodeFrame decodes one frame from the front of b, returning the
// checkpoint and the frame's total size. All failures are typed errors.
func decodeFrame(b []byte) (*Checkpoint, int, error) {
	if len(b) < frameHdrLen {
		return nil, 0, ErrTruncated
	}
	if string(b[:4]) != frameMagic {
		return nil, 0, ErrBadMagic
	}
	payLen := binary.LittleEndian.Uint32(b[4:8])
	if payLen > maxFramePay {
		return nil, 0, fmt.Errorf("%w: payload %d bytes", ErrFrameSize, payLen)
	}
	if len(b) < frameHdrLen+int(payLen) {
		return nil, 0, ErrTruncated
	}
	pay := b[frameHdrLen : frameHdrLen+int(payLen)]
	if crc32.Checksum(pay, castagnoli) != binary.LittleEndian.Uint32(b[8:12]) {
		return nil, 0, ErrChecksum
	}
	cp, err := decodePayload(pay)
	if err != nil {
		return nil, 0, err
	}
	return cp, frameHdrLen + int(payLen), nil
}

// decodePayload decodes a CRC-verified payload; structural violations
// return ErrBadFrame (the CRC passed, so this only fires on encoder bugs
// or adversarial input with a matching checksum).
func decodePayload(pay []byte) (*Checkpoint, error) {
	r := wire.NewReader(pay, ErrBadFrame)
	seq := r.U64()
	id := r.Bytes(int(r.U32()))
	rank := r.U32()
	nPart := r.Count(4, "participants")
	if nPart > maxFrameParts {
		return nil, fmt.Errorf("%w: %d participants", ErrBadFrame, nPart)
	}
	var parts []int
	for i := 0; i < nPart; i++ {
		parts = append(parts, int(r.U32()))
	}
	meta := r.Bytes(int(r.U32()))
	data := r.Bytes(int(r.U32()))
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &Checkpoint{
		ID:           string(id),
		Rank:         int(rank),
		Participants: parts,
		Meta:         string(meta),
		Data:         append([]byte(nil), data...),
		seq:          int64(seq),
	}, nil
}

// decodeChain decodes consecutive frames from b, returning the decoded
// checkpoints, the byte length of the good prefix, and the error that
// stopped the scan (nil when the whole buffer decodes).
func decodeChain(b []byte) ([]*Checkpoint, int64, error) {
	var cps []*Checkpoint
	off := 0
	for off < len(b) {
		cp, n, err := decodeFrame(b[off:])
		if err != nil {
			return cps, int64(off), err
		}
		cps = append(cps, cp)
		off += n
	}
	return cps, int64(off), nil
}

// decodeManifest parses and validates the manifest JSON.
func decodeManifest(raw []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("%w: format %q", ErrBadManifest, m.Format)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("%w: version %d", ErrBadManifest, m.Version)
	}
	if m.Chains == nil {
		m.Chains = make(map[string]*chainMark)
	}
	for key, mark := range m.Chains {
		if mark == nil || mark.Bytes < 0 || mark.Frames < 0 {
			return nil, fmt.Errorf("%w: chain %q mark", ErrBadManifest, key)
		}
	}
	return &m, nil
}
