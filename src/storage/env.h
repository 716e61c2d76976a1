// Pluggable storage environment. Every file touched by the durability
// machinery — the WAL, checkpoints and the file-backed digest store — goes
// through this interface instead of calling fopen/fstream directly. That
// gives production code one place to get durability right (fsync of files
// AND parent directories) and gives tests a seam to inject faults: the
// FaultInjectionEnv wrapper can fail the Nth write/fsync/rename, simulate a
// crash that drops all un-synced data (torn tails included), and flip bits
// on read, so the crash-recovery paths of paper §3.3.2 are actually
// exercised rather than assumed.

#ifndef SQLLEDGER_STORAGE_ENV_H_
#define SQLLEDGER_STORAGE_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlledger {

/// A file open for writing. Data passed to Append may sit in OS buffers;
/// only data covered by a successful Sync is guaranteed to survive a crash.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(Slice data) = 0;
  /// Pushes buffered data to the OS (no durability guarantee).
  virtual Status Flush() = 0;
  /// Makes all appended data crash-durable (fsync).
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// A file open for sequential reading.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  /// Reads up to `n` bytes into `scratch`; returns the number of bytes
  /// actually read, which is less than `n` only at end of file.
  virtual Result<size_t> Read(size_t n, uint8_t* scratch) = 0;
};

struct WritableFileOptions {
  bool truncate = false;   // start from an empty file instead of appending
  bool exclusive = false;  // AlreadyExists if the file is already present
};

/// Filesystem abstraction. All paths are plain filesystem paths; the
/// default implementation (PosixEnv, via Env::Default()) maps straight to
/// POSIX calls.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide default environment (PosixEnv singleton).
  static Env* Default();

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, const WritableFileOptions& opts = {}) = 0;
  virtual Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual bool IsDirectory(const std::string& path) = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;
  /// Names (not paths) of the entries of `dir`, sorted.
  virtual Result<std::vector<std::string>> GetChildren(
      const std::string& dir) = 0;
  virtual Status CreateDirs(const std::string& dir) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Removes an empty directory. OK if it does not exist.
  virtual Status RemoveDir(const std::string& dir) = 0;
  /// Atomic replace. NOT durable until the parent directory is synced.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  /// fsyncs the directory itself, making renames/creates/removes of its
  /// entries durable.
  virtual Status SyncDir(const std::string& dir) = 0;
  /// Strips write permission (immutable-blob emulation).
  virtual Status MakeReadOnly(const std::string& path) = 0;

  /// Convenience: whole-file read via NewSequentialFile.
  Result<std::vector<uint8_t>> ReadFile(const std::string& path);
};

/// Recursively removes `dir` and everything under it through the Env
/// interface (so fault injection sees every operation). OK if `dir` does
/// not exist.
Status RemoveDirRecursive(Env* env, const std::string& dir);

/// Recursively copies the tree rooted at `from` into `to` (created if
/// missing) through the Env interface. Every copied file is synced and
/// each directory dir-synced, so the copy is crash-durable when the call
/// returns — the restore path depends on that.
Status CopyDirRecursive(Env* env, const std::string& from,
                        const std::string& to);

/// Direct POSIX implementation. Stateless; safe to share across threads.
class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, const WritableFileOptions& opts) override;
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  Result<std::vector<std::string>> GetChildren(const std::string& dir) override;
  Status CreateDirs(const std::string& dir) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDir(const std::string& dir) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& dir) override;
  Status MakeReadOnly(const std::string& path) override;
};

/// Wraps another Env (Env::Default() if none given) and injects storage
/// faults. Three independent fault families:
///
///  1. One-shot countdown errors: FailNthWrite/FailNthSync/FailNthRename
///     make the Nth subsequent operation of that kind return IOError.
///  2. Crash simulation: SimulateCrash() (or CrashAtSync(n), which fires
///     while performing the nth sync-type operation) truncates every file
///     written through this env back to its last successfully synced size —
///     optionally keeping a pseudo-random prefix of the un-synced tail, the
///     "torn write" — and rolls back renames that were never made durable
///     by a SyncDir. After the crash every operation fails with IOError, so
///     the engine under test cannot quietly keep working.
///  3. Read corruption: CorruptReadsMatching(substr) flips one bit in every
///     read from files whose path contains `substr`.
///
/// All state is process-local; the wrapped env still writes real files, so
/// a post-crash reopen with a clean env sees exactly what a machine would
/// after power loss.
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* target = nullptr, uint64_t seed = 42);

  // ---- Fault controls ----
  void FailNthWrite(int n);   // n = 1 fails the very next write
  void FailNthSync(int n);
  void FailNthRename(int n);
  void CrashAtSync(int n);    // the nth sync/syncdir fails and crashes
  void SimulateCrash();
  void CorruptReadsMatching(const std::string& substring);
  bool crashed() const;

  // ---- Counters (crash-schedule sizing and I/O counts in tests) ----
  uint64_t sync_count() const;
  uint64_t write_count() const;
  uint64_t rename_count() const;
  uint64_t read_count() const;  // files opened for reading

  // ---- Env interface ----
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, const WritableFileOptions& opts) override;
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  Result<std::vector<std::string>> GetChildren(const std::string& dir) override;
  Status CreateDirs(const std::string& dir) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDir(const std::string& dir) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& dir) override;
  Status MakeReadOnly(const std::string& path) override;

 private:
  friend class FaultInjectionWritableFile;
  friend class FaultInjectionSequentialFile;

  struct FileState {
    uint64_t written_size = 0;  // bytes on disk right now
    uint64_t synced_size = 0;   // bytes guaranteed to survive a crash
  };
  struct PendingRename {
    std::string dir;
    std::string from;
    std::string to;
  };

  /// Returns the injected error if a fault should fire for this operation
  /// kind, decrementing the countdown.
  Status CheckWriteLocked() REQUIRES(mu_);
  Status CheckSyncLocked() REQUIRES(mu_);
  /// Drops un-synced state; returns the crash error.
  Status CrashLocked() REQUIRES(mu_);
  static std::string DirOf(const std::string& path);

  Env* const target_;
  mutable Mutex mu_;
  Random rng_ GUARDED_BY(mu_);
  bool crashed_ GUARDED_BY(mu_) = false;
  int fail_write_countdown_ GUARDED_BY(mu_) = -1;
  int fail_sync_countdown_ GUARDED_BY(mu_) = -1;
  int fail_rename_countdown_ GUARDED_BY(mu_) = -1;
  int crash_sync_countdown_ GUARDED_BY(mu_) = -1;
  std::string corrupt_read_substring_ GUARDED_BY(mu_);
  uint64_t writes_ GUARDED_BY(mu_) = 0;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t renames_ GUARDED_BY(mu_) = 0;
  uint64_t reads_ GUARDED_BY(mu_) = 0;
  std::map<std::string, FileState> files_ GUARDED_BY(mu_);
  std::vector<PendingRename> pending_renames_ GUARDED_BY(mu_);
};

}  // namespace sqlledger

#endif  // SQLLEDGER_STORAGE_ENV_H_
