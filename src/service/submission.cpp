#include "service/submission.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "dist/shard_plan.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace qufi::service {

namespace {

/// 17-significant-digit formatting round-trips IEEE binary64 exactly (the
/// manifest idiom), so re-planning a loaded submission stays bit-exact.
std::string g17(double v) { return util::CsvWriter::field(v); }

}  // namespace

void save_submission(const CampaignRequest& request,
                     const std::string& path) {
  require(!request.adaptive,
          "submission: adaptive campaigns cannot be submitted (the "
          "submission format has no adaptive policy key; campaign " +
              request.name + ")");
  static std::atomic<std::uint64_t> counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(temp);
    require(out.is_open(), "submission: cannot open for writing: " + temp);
    out << "qufi-submission 2\n";
    out << "name " << request.name << "\n";
    out << "priority " << request.priority << "\n";
    out << "circuit " << request.circuit << "\n";
    out << "width " << request.width << "\n";
    out << "device " << request.device << "\n";
    out << "opt_level " << request.opt_level << "\n";
    out << "grid " << g17(request.theta_step) << " " << g17(request.phi_step)
        << " " << g17(request.phi_max) << "\n";
    out << "shots " << request.shots << "\n";
    out << "seed " << request.seed << "\n";
    out << "max_points " << request.max_points << "\n";
    out << "double " << (request.double_fault ? 1 : 0) << "\n";
    out << "idle_noise " << (request.idle_noise ? 1 : 0) << "\n";
    out << "shards " << request.shards << "\n";
    out << "policy " << request.policy << "\n";
    out << "backend_kind " << request.backend_kind << "\n";
    out << "csv " << request.csv_path << "\n";
    out.flush();
    require(out.good(), "submission: write failed: " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw Error("submission: cannot rename into place: " + path);
  }
}

CampaignRequest load_submission(const std::string& path) {
  std::ifstream in(path);
  require(in.is_open(), "submission: cannot open: " + path);
  CampaignRequest request;
  std::string line;
  std::size_t line_no = 0;
  bool versioned = false;
  const auto fail = [&](const std::string& why) -> void {
    throw Error("submission " + path + ":" + std::to_string(line_no) + ": " +
                why);
  };
  // Unsigned fields go through util::parse_unsigned, not `>>`: a stream
  // extraction takes "-1" and wraps it to the type's maximum.
  const auto read_unsigned = [&](std::istringstream& ls, auto& field,
                                 const std::string& key) {
    std::string token;
    ls >> token;
    const auto value =
        util::parse_unsigned<std::remove_reference_t<decltype(field)>>(token);
    if (!value) fail("bad " + key + " line");
    field = *value;
  };
  // `name` and `csv` values run to the end of the line, so they may hold
  // spaces (the manifest reads its circuit name line the same way).
  const auto read_rest_of_line = [&](std::string& field,
                                     const std::string& key) {
    const std::string prefix = key + " ";
    if (line.rfind(prefix, 0) != 0 || line.size() == prefix.size()) {
      fail("bad " + key + " line");
    }
    field = line.substr(prefix.size());
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (line_no == 1 || !versioned) {
      if (key != "qufi-submission") fail("not a qufi-submission file");
      int version = 0;
      if (!(ls >> version) || version != 2) {
        fail("unsupported submission version");
      }
      versioned = true;
      continue;
    }
    if (key == "name") {
      read_rest_of_line(request.name, key);
    } else if (key == "priority") {
      if (!(ls >> request.priority)) fail("bad priority line");
    } else if (key == "circuit") {
      if (!(ls >> request.circuit)) fail("bad circuit line");
    } else if (key == "width") {
      if (!(ls >> request.width)) fail("bad width line");
    } else if (key == "device") {
      if (!(ls >> request.device)) fail("bad device line");
    } else if (key == "opt_level") {
      if (!(ls >> request.opt_level)) fail("bad opt_level line");
    } else if (key == "grid") {
      if (!(ls >> request.theta_step >> request.phi_step >>
            request.phi_max)) {
        fail("bad grid line");
      }
    } else if (key == "shots") {
      read_unsigned(ls, request.shots, key);
    } else if (key == "seed") {
      read_unsigned(ls, request.seed, key);
    } else if (key == "max_points") {
      read_unsigned(ls, request.max_points, key);
    } else if (key == "double") {
      int v = 0;
      if (!(ls >> v)) fail("bad double line");
      request.double_fault = v != 0;
    } else if (key == "idle_noise") {
      int v = 0;
      if (!(ls >> v)) fail("bad idle_noise line");
      request.idle_noise = v != 0;
    } else if (key == "shards") {
      read_unsigned(ls, request.shards, key);
    } else if (key == "policy") {
      if (!(ls >> request.policy)) fail("bad policy line");
    } else if (key == "backend_kind") {
      if (!(ls >> request.backend_kind)) fail("bad backend_kind line");
    } else if (key == "csv") {
      read_rest_of_line(request.csv_path, key);
    } else {
      fail("unknown key: " + key);
    }
  }
  require(versioned, "submission " + path + ": empty file");
  require(!request.name.empty(), "submission " + path + ": missing name");
  require(!request.csv_path.empty(), "submission " + path + ": missing csv");
  return request;
}

CampaignJob plan_submission(const CampaignRequest& request) {
  check_campaign_name(request.name);
  // Each value is one line of the file; a carriage return would survive a
  // CRLF file's load into the CSV path.
  require(request.name.find_first_of("\r\n") == std::string::npos &&
              request.csv_path.find_first_of("\r\n") == std::string::npos,
          "submission: name and csv must not hold a line break");
  require(request.shards >= 1,
          "submission: shards must be >= 1 (campaign " + request.name + ")");
  require(request.policy == "cost",
          "unknown shard policy: " + request.policy + " (want cost)");
  const dist::WorkerBackendKind kind =
      dist::worker_backend_kind_from_name(request.backend_kind);
  const CampaignSpec spec = dist::campaign_spec(request);

  const auto plan = dist::plan_campaign_shards(spec, request.shards);
  CampaignJob job;
  job.name = request.name;
  job.priority = request.priority;
  job.csv_path = request.csv_path;
  job.manifests = dist::make_manifests(spec, request.device, kind, plan,
                                       request.double_fault);
  return job;
}

}  // namespace qufi::service
