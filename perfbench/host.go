package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// host identifies where a result was measured; results from hosts
// that differ in any of the comparable fields are never compared
// silently.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
	// SourceSHA256 hashes the Go sources and module files of the
	// checkout, so a result can be tied to its code without git.
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	WALFS        string `json:"wal_fs"`
	WALFlush     string `json:"wal_flush"`
	Clients      int    `json:"clients"`
}

// comparable is the part of the stamp two results must share for their
// numbers to be compared.
func (h host) comparable() string {
	return strings.Join([]string{h.CPUModel, h.OS, h.GoVersion,
		strconv.Itoa(h.NumCPU), strconv.Itoa(h.GOMAXPROCS), strconv.Itoa(h.Clients), h.WALFS}, " | ")
}

func stampHost(seed int64, clients int, walDir string) host {
	return host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		OS:           runtime.GOOS + "/" + runtime.GOARCH,
		Commit:       gitCommit(),
		SourceSHA256: sourceHash("."),
		Seed:         seed,
		WALFS:        fsType(walDir),
		WALFlush:     "fsync of every commit record before the new version is published (store group commit)",
		Clients:      clients,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the commit of a git checkout rooted here; git is not
// asked elsewhere, since it would report an enclosing repository.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every .go, go.mod and go.sum file under root in
// path order, skipping hidden directories such as the build output.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
