#include "model/serialization.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "model/section_codec.h"
#include "model/utility.h"

namespace lla {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

bool ParseDouble(const std::string& token, double* out) {
  std::size_t consumed = 0;
  try {
    *out = std::stod(token, &consumed);
  } catch (...) {
    return false;
  }
  return consumed == token.size();
}

bool ParseInt(const std::string& token, int* out) {
  std::size_t consumed = 0;
  try {
    *out = std::stoi(token, &consumed);
  } catch (...) {
    return false;
  }
  return consumed == token.size();
}

std::string LineError(int line, const std::string& message) {
  std::ostringstream os;
  os << "line " << line << ": " << message;
  return os.str();
}

}  // namespace

Expected<Workload> LoadWorkload(std::istream& in) {
  using E = Expected<Workload>;
  std::vector<ResourceSpec> resources;
  std::map<std::string, std::size_t> resource_index;
  std::vector<TaskSpec> tasks;
  TaskSpec current;
  bool in_task = false;

  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];

    if (keyword == "resource") {
      if (in_task) {
        return E::Error(LineError(line_number,
                                  "resource declared inside a task block"));
      }
      if (tokens.size() != 5) {
        return E::Error(LineError(
            line_number, "expected: resource <name> <cpu|link> <cap> <lag>"));
      }
      ResourceSpec spec;
      spec.name = tokens[1];
      if (tokens[2] == "cpu") {
        spec.kind = ResourceKind::kCpu;
      } else if (tokens[2] == "link") {
        spec.kind = ResourceKind::kNetworkLink;
      } else {
        return E::Error(LineError(line_number,
                                  "resource kind must be cpu or link"));
      }
      if (!ParseDouble(tokens[3], &spec.capacity) ||
          !ParseDouble(tokens[4], &spec.lag_ms)) {
        return E::Error(LineError(line_number, "bad capacity/lag number"));
      }
      if (resource_index.count(spec.name)) {
        return E::Error(
            LineError(line_number, "duplicate resource '" + spec.name + "'"));
      }
      resource_index[spec.name] = resources.size();
      resources.push_back(std::move(spec));
    } else if (keyword == "task") {
      if (in_task) {
        return E::Error(
            LineError(line_number, "missing 'end' before new task"));
      }
      if (tokens.size() != 3) {
        return E::Error(LineError(
            line_number, "expected: task <name> <critical_time_ms>"));
      }
      current = TaskSpec{};
      current.name = tokens[1];
      if (!ParseDouble(tokens[2], &current.critical_time_ms)) {
        return E::Error(LineError(line_number, "bad critical time"));
      }
      in_task = true;
    } else if (keyword == "utility") {
      if (!in_task) {
        return E::Error(LineError(line_number, "utility outside task"));
      }
      double a = 0, b = 0, c = 0;
      Utility::Shape shape;
      if (tokens.size() == 4 && tokens[1] == "linear" &&
          ParseDouble(tokens[2], &a) && ParseDouble(tokens[3], &b)) {
        shape = Utility::Shape::kLinear;
      } else if (tokens.size() == 5 && tokens[1] == "power" &&
                 ParseDouble(tokens[2], &a) && ParseDouble(tokens[3], &b) &&
                 ParseDouble(tokens[4], &c)) {
        shape = Utility::Shape::kPower;
      } else if (tokens.size() == 4 && tokens[1] == "negexp" &&
                 ParseDouble(tokens[2], &a) && ParseDouble(tokens[3], &b)) {
        shape = Utility::Shape::kNegExp;
      } else if (tokens.size() == 5 && tokens[1] == "inelastic" &&
                 ParseDouble(tokens[2], &a) && ParseDouble(tokens[3], &b) &&
                 ParseDouble(tokens[4], &c)) {
        shape = Utility::Shape::kInelastic;
      } else {
        return E::Error(LineError(line_number, "bad utility spec"));
      }
      const std::string problem = Utility::ParamProblem(shape, a, b, c);
      if (!problem.empty()) {
        return E::Error(
            LineError(line_number, "utility " + tokens[1] + ": " + problem));
      }
      current.utility = Utility(shape, a, b, c);
    } else if (keyword == "trigger") {
      if (!in_task) {
        return E::Error(LineError(line_number, "trigger outside task"));
      }
      double a = 0, b = 0;
      int n = 0;
      if (tokens.size() >= 3 && tokens[1] == "periodic" &&
          ParseDouble(tokens[2], &a) &&
          (tokens.size() == 3 ||
           (tokens.size() == 4 && ParseDouble(tokens[3], &b)))) {
        current.trigger = TriggerSpec::Periodic(a, b);
      } else if (tokens.size() == 3 && tokens[1] == "poisson" &&
                 ParseDouble(tokens[2], &a)) {
        current.trigger = TriggerSpec::Poisson(a);
      } else if (tokens.size() == 5 && tokens[1] == "bursty" &&
                 ParseDouble(tokens[2], &a) && ParseInt(tokens[3], &n) &&
                 ParseDouble(tokens[4], &b)) {
        current.trigger = TriggerSpec::Bursty(a, n, b);
      } else {
        return E::Error(LineError(line_number, "bad trigger spec"));
      }
    } else if (keyword == "subtask") {
      if (!in_task) {
        return E::Error(LineError(line_number, "subtask outside task"));
      }
      if (tokens.size() != 4 && tokens.size() != 5) {
        return E::Error(LineError(
            line_number,
            "expected: subtask <name> <resource> <wcet> [min_share]"));
      }
      SubtaskSpec spec;
      spec.name = tokens[1];
      const auto it = resource_index.find(tokens[2]);
      if (it == resource_index.end()) {
        return E::Error(LineError(line_number,
                                  "unknown resource '" + tokens[2] + "'"));
      }
      spec.resource = ResourceId(it->second);
      if (!ParseDouble(tokens[3], &spec.wcet_ms)) {
        return E::Error(LineError(line_number, "bad wcet"));
      }
      if (tokens.size() == 5 && !ParseDouble(tokens[4], &spec.min_share)) {
        return E::Error(LineError(line_number, "bad min_share"));
      }
      current.subtasks.push_back(std::move(spec));
    } else if (keyword == "edge") {
      if (!in_task) {
        return E::Error(LineError(line_number, "edge outside task"));
      }
      int from = 0, to = 0;
      if (tokens.size() != 3 || !ParseInt(tokens[1], &from) ||
          !ParseInt(tokens[2], &to)) {
        return E::Error(LineError(line_number, "expected: edge <from> <to>"));
      }
      current.edges.emplace_back(from, to);
    } else if (keyword == "end") {
      if (!in_task) {
        return E::Error(LineError(line_number, "'end' without task"));
      }
      tasks.push_back(std::move(current));
      in_task = false;
    } else {
      return E::Error(
          LineError(line_number, "unknown keyword '" + keyword + "'"));
    }
  }
  if (in_task) {
    return E::Error("unexpected end of input: task '" + current.name +
                    "' missing 'end'");
  }
  return Workload::Create(std::move(resources), std::move(tasks));
}

Expected<Workload> LoadWorkloadFromString(const std::string& text) {
  std::istringstream is(text);
  return LoadWorkload(is);
}

Expected<Workload> LoadWorkloadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Expected<Workload>::Error("cannot open '" + path + "'");
  }
  return LoadWorkload(in);
}

Status SaveWorkload(const Workload& workload, std::ostream& out) {
  out << "# LLA workload (see model/serialization.h for the format)\n";
  for (const ResourceInfo& resource : workload.resources()) {
    out << "resource " << resource.name << ' '
        << (resource.kind == ResourceKind::kCpu ? "cpu" : "link") << ' '
        << resource.capacity << ' ' << resource.lag_ms << '\n';
  }
  for (const TaskInfo& task : workload.tasks()) {
    out << "task " << task.name << ' ' << task.critical_time_ms << '\n';

    const Utility& u = task.utility;
    out << "  utility " << Utility::Name(u.shape()) << ' ' << u.a() << ' '
        << u.b();
    switch (u.shape()) {
      case Utility::Shape::kPower:
      case Utility::Shape::kInelastic:
        out << ' ' << u.c();
        break;
      case Utility::Shape::kLinear:
      case Utility::Shape::kNegExp:
        break;
    }
    out << '\n';

    switch (task.trigger.kind) {
      case TriggerSpec::Kind::kPeriodic:
        out << "  trigger periodic " << task.trigger.period_ms << ' '
            << task.trigger.phase_ms << '\n';
        break;
      case TriggerSpec::Kind::kPoisson:
        out << "  trigger poisson " << task.trigger.rate_per_s << '\n';
        break;
      case TriggerSpec::Kind::kBursty:
        out << "  trigger bursty " << task.trigger.period_ms << ' '
            << task.trigger.burst_size << ' '
            << task.trigger.burst_spread_ms << '\n';
        break;
    }
    for (SubtaskId sid : task.subtasks) {
      const SubtaskInfo& sub = workload.subtask(sid);
      out << "  subtask " << sub.name << ' '
          << workload.resource(sub.resource).name << ' ' << sub.wcet_ms
          << ' ' << sub.min_share << '\n';
    }
    for (const auto& [from, to] : task.dag.edges()) {
      out << "  edge " << from << ' ' << to << '\n';
    }
    out << "end\n";
  }
  if (!out) return Status::Error("SaveWorkload: the stream failed");
  return Status{};
}

Expected<std::string> SaveWorkloadToString(const Workload& workload) {
  std::ostringstream os;
  const Status status = SaveWorkload(workload, os);
  if (!status.ok()) return Expected<std::string>::Error(status.error());
  return os.str();
}

Status SaveWorkloadToFile(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Error("cannot open '" + path + "' for writing");
  const bool written = SaveWorkload(workload, out).ok();
  out.close();  // flushes: a full device took every write but fails here
  if (!written || !out) return Status::Error("cannot write '" + path + "'");
  return Status{};
}

// ---------------------------------------------------------------------------
// Snapshot format "b1" (DESIGN.md §7.10).  Layout (all little-endian):
//
//   [ 0..8)   magic "LLASNAPB"
//   [ 8..12)  u32 version (1)
//   [12..16)  u32 section_count
//   [16..80)  scalar header: u64 resource/path/subtask/task counts,
//             i64 iteration, u64 total_subtask_solves, i64 step_iteration,
//             u64 momentum_restarts
//   [80..88)  u8 converged, u8 0 (older images may hold 1: the retired
//             active-set price state was present), 6 pad bytes
//   [88..88+32n)  section table, 32 bytes per entry:
//             u32 id, u8 elem_kind, u8 encoding, u16 pad,
//             u64 count (decoded elements), u64 offset (from payload start),
//             u64 size (encoded bytes)
//   [payload] sections back to back, each 8-byte aligned from file start.
//
// Values keep their raw IEEE-754 / integer bit patterns in every encoding,
// so the round-trip is bit-exact.  The encoding is chosen per section by
// encoded size: raw (count * width contiguous words — the default), rle
// (u64 run_count, then (u64 run_len, word) pairs — collapses all-1.0 step
// multipliers), or sparse (u64 nnz, then (u32 index, word) pairs, indices
// strictly increasing — collapses mostly-zero lambda).
// ---------------------------------------------------------------------------

namespace {

constexpr char kBinaryMagic[8] = {'L', 'L', 'A', 'S', 'N', 'A', 'P', 'B'};
constexpr std::uint32_t kBinaryVersion = 1;
constexpr std::size_t kBinaryHeaderSize = 88;
constexpr std::size_t kSectionEntrySize = 32;
/// Alloc guard when decoding corrupt tables: generous for the 10^6-subtask
/// north star, tiny next to what a hostile u64 count could demand.
constexpr std::uint64_t kMaxSectionElems = 1ull << 28;
/// The same guard on the file reader: 10^6-subtask images are tens of KB
/// (tens of MB were every section raw), a path can name a file of any size.
constexpr std::uintmax_t kMaxSnapshotFileBytes = std::uintmax_t{1} << 30;

using b1::GetWord;
using b1::PutWord;

template <typename T>
constexpr std::uint8_t ElemKindOf() {
  if constexpr (std::is_same_v<T, double>) {
    return kSnapshotElemF64;
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    return kSnapshotElemU8;
  } else {
    static_assert(std::is_same_v<T, std::uint32_t>);
    return kSnapshotElemU32;
  }
}

/// Binds catalogue id `Id` to its StateSnapshot field; the field's element
/// type must match the catalogue's kind.
template <std::uint32_t Id, typename Vec, typename Fn>
void BindSection(Vec* field, Fn& fn) {
  static_assert(!kSnapshotSections[Id].retired);
  static_assert(kSnapshotSections[Id].elem_kind ==
                ElemKindOf<typename Vec::value_type>());
  fn(Id, field);
}

/// Calls fn(id, &field) for every live kSnapshotSections row, in id order.
/// `Snapshot` is StateSnapshot or const StateSnapshot.
template <typename Snapshot, typename Fn>
void ForEachSection(Snapshot* snap, Fn&& fn) {
  BindSection<1>(&snap->mu, fn);
  BindSection<2>(&snap->lambda, fn);
  BindSection<3>(&snap->resource_step_multiplier, fn);
  BindSection<4>(&snap->path_step_multiplier, fn);
  BindSection<5>(&snap->recent_utilities, fn);
  BindSection<6>(&snap->mu_velocity, fn);
  BindSection<7>(&snap->lambda_velocity, fn);
  BindSection<8>(&snap->mu_base, fn);
  BindSection<9>(&snap->lambda_base, fn);
  BindSection<10>(&snap->mu_phase, fn);
  BindSection<11>(&snap->lambda_phase, fn);
  // Ids 12-21 are retired rows: the parser validates them, nothing binds.
  static_assert(std::all_of(std::begin(kSnapshotSections) + 12,
                            std::end(kSnapshotSections),
                            [](const SnapshotSectionSpec& spec) {
                              return spec.retired;
                            }));
}

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint8_t elem_kind = 0;
  std::uint8_t encoding = 0;
  std::uint64_t count = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

template <typename T>
void AppendSection(std::uint32_t id, const std::vector<T>& values,
                   std::vector<SectionEntry>* table, std::string* payload) {
  SectionEntry entry;
  entry.id = id;
  entry.elem_kind = ElemKindOf<T>();
  entry.count = values.size();
  entry.offset = payload->size();
  entry.encoding = b1::EncodeWords(values.data(), values.size(), payload);
  entry.size = payload->size() - entry.offset;
  // Keep every section 8-byte aligned from the payload start (and so from
  // the file start: header and table sizes are multiples of 8).
  while (payload->size() % 8 != 0) payload->push_back('\0');
  table->push_back(entry);
}

/// Reads one section's words with b1::DecodeWords: into out[0..count), or,
/// with a null `out`, validating only.  The encoding must fill exactly the
/// `size` bytes the section table gives it.
template <typename T>
bool ReadSectionWords(const char* at, std::uint64_t size,
                      std::uint8_t encoding, std::uint64_t count, T* out,
                      std::string* error) {
  std::size_t used = 0;
  if (!b1::DecodeWords(at, size, encoding, count, out, &used, error)) {
    return false;
  }
  if (used != size) {
    *error = "section size does not match its encoding";
    return false;
  }
  return true;
}

/// Validates one section's encoding (ReadSectionWords with a null output),
/// dispatched on the runtime element kind.
bool ValidateSectionWords(const char* at, std::uint64_t size,
                          std::uint8_t encoding, std::uint8_t kind,
                          std::uint64_t count, std::string* error) {
  switch (kind) {
    case kSnapshotElemF64:
      return ReadSectionWords<double>(at, size, encoding, count, nullptr,
                                      error);
    case kSnapshotElemU8:
      return ReadSectionWords<std::uint8_t>(at, size, encoding, count,
                                            nullptr, error);
    case kSnapshotElemU32:
      return ReadSectionWords<std::uint32_t>(at, size, encoding, count,
                                             nullptr, error);
  }
  *error = "unknown element kind";
  return false;
}

/// Decodes one section of a parsed view into `out` (resized to its count;
/// an absent section yields an empty vector).  ParseSnapshotBinary ran the
/// same reader over the view, so a failure here is a bug, and aborts.
template <typename T>
void DecodeSection(const SnapshotSectionRef& section, std::vector<T>* out) {
  out->resize(section.count);
  if (!section.present() || section.count == 0) return;
  std::string error;
  if (!ReadSectionWords(section.data, section.size, section.encoding,
                        section.count, out->data(), &error)) {
    std::fprintf(stderr,
                 "snapshot b1: a parsed section failed to decode: %s\n",
                 error.c_str());
    std::abort();
  }
}

std::string BinaryError(const std::string& message) {
  return "snapshot b1: " + message;
}

// Live sections whose count is 0 or the header's resource count (the step
// and dynamics state of the resource side), and the path-side analogues.
constexpr std::uint32_t kResourceSideSections[] = {3, 6, 8, 10};
constexpr std::uint32_t kPathSideSections[] = {4, 7, 9, 11};
constexpr std::uint32_t kUtilityWindowSection = 5;

// Decodes every section of a parsed view into an owning StateSnapshot,
// each exactly once, straight into the snapshot's vectors (one memcpy per
// raw section); it cannot fail on a parsed view.
StateSnapshot MaterializeSnapshot(const SnapshotView& view) {
  StateSnapshot snap;
  snap.resource_count = view.resource_count;
  snap.path_count = view.path_count;
  snap.subtask_count = view.subtask_count;
  snap.task_count = view.task_count;
  snap.iteration = view.iteration;
  snap.converged = view.converged;
  snap.total_subtask_solves = view.total_subtask_solves;
  snap.step_iteration = view.step_iteration;
  snap.momentum_restarts = view.momentum_restarts;
  ForEachSection(&snap, [&](std::uint32_t id, auto* vec) {
    DecodeSection(view.sections[id], vec);
  });
  return snap;
}

}  // namespace

Expected<std::string> SaveSnapshotToString(const StateSnapshot& snapshot) {
  std::vector<SectionEntry> table;
  std::string payload;
  ForEachSection(&snapshot, [&](std::uint32_t id, const auto* vec) {
    AppendSection(id, *vec, &table, &payload);
  });

  std::string out;
  out.reserve(kBinaryHeaderSize + table.size() * kSectionEntrySize +
              payload.size());
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  PutWord<std::uint32_t>(&out, kBinaryVersion);
  PutWord<std::uint32_t>(&out, static_cast<std::uint32_t>(table.size()));
  PutWord<std::uint64_t>(&out, snapshot.resource_count);
  PutWord<std::uint64_t>(&out, snapshot.path_count);
  PutWord<std::uint64_t>(&out, snapshot.subtask_count);
  PutWord<std::uint64_t>(&out, snapshot.task_count);
  PutWord<std::int64_t>(&out, snapshot.iteration);
  PutWord<std::uint64_t>(&out, snapshot.total_subtask_solves);
  PutWord<std::int64_t>(&out, snapshot.step_iteration);
  PutWord<std::uint64_t>(&out, snapshot.momentum_restarts);
  out.push_back(snapshot.converged ? 1 : 0);
  out.append(7, '\0');
  for (const SectionEntry& entry : table) {
    PutWord<std::uint32_t>(&out, entry.id);
    out.push_back(static_cast<char>(entry.elem_kind));
    out.push_back(static_cast<char>(entry.encoding));
    out.append(2, '\0');
    PutWord<std::uint64_t>(&out, entry.count);
    PutWord<std::uint64_t>(&out, entry.offset);
    PutWord<std::uint64_t>(&out, entry.size);
  }
  out.append(payload);
  return out;
}

Status SaveSnapshotToFile(const StateSnapshot& snapshot,
                          const std::string& path) {
  const std::string bytes = SaveSnapshotToString(snapshot).value();
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Error("cannot open '" + path + "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();  // flushes: a full device took the write but fails here
  if (!out) return Status::Error("cannot write '" + path + "'");
  return Status{};
}

Expected<StateSnapshot> LoadSnapshotFromString(const std::string& bytes,
                                               const Workload& workload) {
  using E = Expected<StateSnapshot>;
  Expected<SnapshotView> parsed = ParseSnapshotBinary(bytes.data(),
                                                      bytes.size());
  if (!parsed.ok()) return E::Error(parsed.error());
  const SnapshotView& view = parsed.value();
  if (view.resource_count != workload.resource_count() ||
      view.path_count != workload.path_count() ||
      view.subtask_count != workload.subtask_count() ||
      view.task_count != workload.task_count()) {
    const auto shape = [](std::uint64_t r, std::uint64_t p, std::uint64_t s,
                          std::uint64_t t) {
      return std::to_string(r) + " resources, " + std::to_string(p) +
             " paths, " + std::to_string(s) + " subtasks, " +
             std::to_string(t) + " tasks";
    };
    return E::Error(BinaryError(
        "header shape (" +
        shape(view.resource_count, view.path_count, view.subtask_count,
              view.task_count) +
        ") does not match the workload (" +
        shape(workload.resource_count(), workload.path_count(),
              workload.subtask_count(), workload.task_count()) +
        ")"));
  }
  return MaterializeSnapshot(view);
}

Expected<StateSnapshot> LoadSnapshotFromFile(const std::string& path,
                                             const Workload& workload) {
  Expected<std::string> bytes = ReadSnapshotFile(path);
  if (!bytes.ok()) return Expected<StateSnapshot>::Error(bytes.error());
  return LoadSnapshotFromString(bytes.value(), workload);
}

Expected<std::string> ReadSnapshotFile(const std::string& path) {
  using E = Expected<std::string>;
  // Sized up front, so a device or a pipe, whose read need never end, and a
  // file larger than any image are refused instead of read whole.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return E::Error("cannot open '" + path + "' for reading: " +
                    error.message());
  }
  if (size > kMaxSnapshotFileBytes) {
    return E::Error("'" + path + "' holds " + std::to_string(size) +
                    " bytes, more than any snapshot image");
  }
  std::string bytes(size, '\0');
  std::ifstream in(path, std::ios::binary);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return E::Error("cannot read '" + path + "'");
  }
  return bytes;
}

Expected<SnapshotView> ParseSnapshotBinary(const char* data,
                                           std::size_t size) {
  using E = Expected<SnapshotView>;
  if (size < sizeof(kBinaryMagic) ||
      std::memcmp(data, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return E::Error(BinaryError("missing magic bytes"));
  }
  if (size < kBinaryHeaderSize) {
    return E::Error(BinaryError("truncated header"));
  }
  const std::uint32_t version = GetWord<std::uint32_t>(data + 8);
  if (version != kBinaryVersion) {
    return E::Error(BinaryError("unsupported version " +
                                std::to_string(version)));
  }
  const std::uint32_t section_count = GetWord<std::uint32_t>(data + 12);
  const std::size_t table_end =
      kBinaryHeaderSize +
      static_cast<std::size_t>(section_count) * kSectionEntrySize;
  if (section_count > (size - kBinaryHeaderSize) / kSectionEntrySize) {
    return E::Error(BinaryError("truncated section table"));
  }

  SnapshotView view;
  view.resource_count = GetWord<std::uint64_t>(data + 16);
  view.path_count = GetWord<std::uint64_t>(data + 24);
  view.subtask_count = GetWord<std::uint64_t>(data + 32);
  view.task_count = GetWord<std::uint64_t>(data + 40);
  view.iteration = GetWord<std::int64_t>(data + 48);
  view.total_subtask_solves = GetWord<std::uint64_t>(data + 56);
  view.step_iteration = GetWord<std::int64_t>(data + 64);
  view.momentum_restarts = GetWord<std::uint64_t>(data + 72);
  const std::uint8_t converged = static_cast<std::uint8_t>(data[80]);
  // Byte 81 is 0 in new images; older ones set it to 1 alongside the now
  // retired active-set price sections.
  const std::uint8_t retired_primed = static_cast<std::uint8_t>(data[81]);
  if (converged > 1 || retired_primed > 1) {
    return E::Error(BinaryError("bad header flags"));
  }
  view.converged = converged == 1;

  const char* payload = data + table_end;
  const std::size_t payload_size = size - table_end;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const char* row = data + kBinaryHeaderSize + s * kSectionEntrySize;
    SectionEntry entry;
    entry.id = GetWord<std::uint32_t>(row);
    entry.elem_kind = static_cast<std::uint8_t>(row[4]);
    entry.encoding = static_cast<std::uint8_t>(row[5]);
    entry.count = GetWord<std::uint64_t>(row + 8);
    entry.offset = GetWord<std::uint64_t>(row + 16);
    entry.size = GetWord<std::uint64_t>(row + 24);

    const std::string where = "section id " + std::to_string(entry.id);
    const bool known_id = entry.id <= SnapshotView::kMaxSectionId &&
                          kSnapshotSections[entry.id].name != nullptr;
    if (known_id && view.sections[entry.id].present()) {
      return E::Error(BinaryError("duplicate " + where));
    }
    if (entry.elem_kind >= std::size(kSnapshotElemKinds)) {
      return E::Error(BinaryError(where + ": unknown element kind"));
    }
    if (entry.count > kMaxSectionElems) {
      return E::Error(BinaryError(where + ": element count out of range"));
    }
    if (entry.offset % 8 != 0 || entry.offset > payload_size ||
        entry.size > payload_size - entry.offset) {
      return E::Error(BinaryError(where + ": payload out of bounds"));
    }
    if (!known_id) {
      return E::Error(BinaryError("unknown " + where));
    }
    const std::uint8_t kind = kSnapshotSections[entry.id].elem_kind;
    if (kind != entry.elem_kind) {
      return E::Error(
          BinaryError(where + ": element kind does not match section id"));
    }
    // The loaders' reader, run with a null output: it stores and allocates
    // nothing, and a decode of the view under the same rules cannot fail.
    std::string decode_error;
    if (!ValidateSectionWords(payload + entry.offset, entry.size,
                              entry.encoding, kind, entry.count,
                              &decode_error)) {
      return E::Error(BinaryError(where + ": " + decode_error));
    }
    SnapshotSectionRef& ref = view.sections[entry.id];
    ref.elem_kind = entry.elem_kind;
    ref.encoding = entry.encoding;
    ref.count = entry.count;
    ref.data = payload + entry.offset;
    ref.size = entry.size;
  }

  // Tie every live section's count to the header, so materializing the
  // view allocates no more than the header declares.
  const auto count = [&view](std::uint32_t id) {
    return view.sections[id].present() ? view.sections[id].count : 0;
  };
  if (count(1) != view.resource_count || count(2) != view.path_count) {
    return E::Error(
        BinaryError("price vectors do not match declared shape"));
  }
  const auto misfit = [&](std::uint32_t id, const std::string& expected) {
    return E::Error(BinaryError("section id " + std::to_string(id) + " (" +
                                kSnapshotSections[id].name + "): " +
                                std::to_string(count(id)) +
                                " elements, expected " + expected));
  };
  for (const std::uint32_t id : kResourceSideSections) {
    if (count(id) != 0 && count(id) != view.resource_count) {
      return misfit(id, "0 or " + std::to_string(view.resource_count));
    }
  }
  for (const std::uint32_t id : kPathSideSections) {
    if (count(id) != 0 && count(id) != view.path_count) {
      return misfit(id, "0 or " + std::to_string(view.path_count));
    }
  }
  if (count(kUtilityWindowSection) > kSnapshotUtilityWindow) {
    return misfit(kUtilityWindowSection,
                  "at most " + std::to_string(kSnapshotUtilityWindow));
  }
  return view;
}

}  // namespace lla
