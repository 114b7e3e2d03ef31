#include "analysis/graph_io.hpp"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "util/string_util.hpp"

namespace analysis {

namespace {

pdl::util::Error at(const std::string& filename, int line, std::string message) {
  return pdl::util::Error{std::move(message),
                          filename + ":" + std::to_string(line)};
}

/// "1024", "64kB", "2MB", "1GB" -> bytes (decimal units, like PDL SIZE).
bool parse_bytes(const std::string& token, std::uint64_t* out) {
  std::size_t end = 0;
  while (end < token.size() &&
         (std::isdigit(static_cast<unsigned char>(token[end])) != 0)) {
    ++end;
  }
  if (end == 0) return false;
  std::uint64_t value = 0;
  try {
    value = std::stoull(token.substr(0, end));
  } catch (...) {
    return false;
  }
  const std::string unit = token.substr(end);
  std::uint64_t scale = 1;
  if (unit == "kB" || unit == "KB" || unit == "kb") {
    scale = 1000;
  } else if (unit == "MB" || unit == "mb") {
    scale = 1000 * 1000;
  } else if (unit == "GB" || unit == "gb") {
    scale = 1000 * 1000 * 1000;
  } else if (!unit.empty() && unit != "B") {
    return false;
  }
  if (scale != 1 && value > UINT64_MAX / scale) return false;
  *out = value * scale;
  return true;
}

/// Strict positive finite double for tolerance/range/depth values: rejects
/// "inf", "nan", hex floats and trailing garbage via util::parse_double,
/// plus zero and negatives (a non-positive tolerance or magnitude makes
/// every A7xx bound meaningless).
bool parse_positive(const std::string& token, double* out) {
  const auto value = pdl::util::parse_double(token);
  if (!value || !(*value > 0.0)) return false;
  *out = *value;
  return true;
}

}  // namespace

pdl::util::Result<starvm::TaskGraph> parse_graph_text(
    const std::string& text, const std::string& filename) {
  starvm::TaskGraph graph;
  std::map<std::string, int> buffer_ids;
  std::map<std::string, int> task_ids;

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) continue;

    pdl::SourceLoc loc{filename, lineno, 1};
    if (directive == "buffer") {
      std::string name;
      std::string size_token;
      if (!(fields >> name >> size_token)) {
        return at(filename, lineno, "buffer needs: buffer <name> <bytes> [base]");
      }
      if (buffer_ids.count(name) > 0) {
        return at(filename, lineno, "duplicate buffer '" + name + "'");
      }
      std::uint64_t bytes = 0;
      if (!parse_bytes(size_token, &bytes)) {
        return at(filename, lineno,
                  "bad size '" + size_token + "' (want bytes, kB, MB or GB)");
      }
      std::string base_token;
      int id = -1;
      if (fields >> base_token) {
        std::uint64_t base = 0;
        if (!parse_bytes(base_token, &base)) {
          return at(filename, lineno, "bad base '" + base_token + "'");
        }
        id = graph.add_buffer_at(name, base, bytes, loc);
        if (id < 0) {
          return at(filename, lineno,
                    "buffer '" + name + "' wraps past 2^64 (base + bytes)");
        }
      } else {
        id = graph.add_buffer(name, bytes, loc);
      }
      buffer_ids[name] = id;
      continue;
    }

    if (directive == "tolerance" || directive == "range") {
      std::string name;
      std::string value_token;
      if (!(fields >> name >> value_token)) {
        return at(filename, lineno,
                  directive + " needs: " + directive + " <buffer> <value>");
      }
      std::string extra;
      if (fields >> extra) {
        return at(filename, lineno, "trailing token '" + extra + "' after " +
                                        directive + " value");
      }
      const auto it = buffer_ids.find(name);
      if (it == buffer_ids.end()) {
        return at(filename, lineno, directive + " on unknown buffer '" + name +
                                        "' (declare the buffer first)");
      }
      double value = 0.0;
      if (!parse_positive(value_token, &value)) {
        return at(filename, lineno, "bad " + directive + " '" + value_token +
                                        "' (want a finite value > 0)");
      }
      const starvm::GraphBuffer& buf =
          graph.buffers()[static_cast<std::size_t>(it->second)];
      if (directive == "tolerance") {
        if (buf.has_tolerance) {
          return at(filename, lineno,
                    "duplicate tolerance for buffer '" + name + "'");
        }
        graph.set_buffer_tolerance(it->second, value, loc);
      } else {
        if (buf.has_range) {
          return at(filename, lineno,
                    "duplicate range for buffer '" + name + "'");
        }
        graph.set_buffer_range(it->second, value);
      }
      continue;
    }

    if (directive == "task") {
      std::string name;
      if (!(fields >> name)) {
        return at(filename, lineno, "task needs: task <name> [key=value...]");
      }
      if (task_ids.count(name) > 0) {
        return at(filename, lineno, "duplicate task '" + name + "'");
      }
      std::vector<starvm::GraphAccess> accesses;
      std::vector<int> deps;
      double flops = 0.0;
      starvm::ErrorModel model;
      double coeff = 0.0;  // 0 = not given
      double eps = 0.0;
      double depth = 0.0;
      std::string option;
      while (fields >> option) {
        const auto eq = option.find('=');
        if (eq == std::string::npos) {
          return at(filename, lineno, "bad task option '" + option +
                                          "' (want key=value)");
        }
        const std::string key = option.substr(0, eq);
        const std::string value = option.substr(eq + 1);
        if (key == "read" || key == "write" || key == "rw") {
          const auto it = buffer_ids.find(value);
          if (it == buffer_ids.end()) {
            return at(filename, lineno, "unknown buffer '" + value + "'");
          }
          starvm::Access mode = starvm::Access::kRead;
          if (key == "write") mode = starvm::Access::kWrite;
          if (key == "rw") mode = starvm::Access::kReadWrite;
          accesses.push_back({it->second, mode});
        } else if (key == "after") {
          const auto it = task_ids.find(value);
          if (it == task_ids.end()) {
            return at(filename, lineno, "unknown task '" + value + "'");
          }
          deps.push_back(it->second);
        } else if (key == "flops") {
          const auto parsed = pdl::util::parse_double(value);
          if (!parsed) {
            return at(filename, lineno,
                      "bad flops '" + value + "' (want a finite value >= 0)");
          }
          if (*parsed < 0.0) {
            return at(filename, lineno, "negative flops '" + value + "'");
          }
          flops = *parsed;
        } else if (key == "model") {
          if (model.specified()) {
            return at(filename, lineno, "duplicate model for task '" + name + "'");
          }
          if (value == "exact") {
            model = starvm::ErrorModel::exact();
          } else if (value == "rounding") {
            model = starvm::ErrorModel::rounding(
                1.0, starvm::ErrorModel::kUlpDouble);
          } else if (value == "rounding32") {
            model = starvm::ErrorModel::rounding(
                1.0, starvm::ErrorModel::kUlpSingle);
          } else {
            return at(filename, lineno,
                      "bad model '" + value +
                          "' (want exact, rounding or rounding32)");
          }
        } else if (key == "coeff") {
          if (!parse_positive(value, &coeff)) {
            return at(filename, lineno,
                      "bad coeff '" + value + "' (want a finite value > 0)");
          }
        } else if (key == "eps") {
          if (!parse_positive(value, &eps)) {
            return at(filename, lineno,
                      "bad eps '" + value + "' (want a finite value > 0)");
          }
        } else if (key == "depth") {
          if (!parse_positive(value, &depth)) {
            return at(filename, lineno,
                      "bad depth '" + value + "' (want a finite value > 0)");
          }
        } else {
          return at(filename, lineno,
                    "unknown task option '" + key +
                        "' (want read/write/rw/after/flops/model/coeff/eps/"
                        "depth)");
        }
      }
      // coeff=/eps= refine a rounding model; without one they would be
      // silently dead, which is exactly the typo class this format rejects.
      if ((coeff > 0.0 || eps > 0.0) &&
          model.kind != starvm::ErrorModel::Kind::kRounding) {
        return at(filename, lineno,
                  "coeff=/eps= need model=rounding or model=rounding32");
      }
      if (coeff > 0.0) model.coefficient = coeff;
      if (eps > 0.0) model.epsilon = eps;
      const int id =
          graph.add_task(name, std::move(accesses), std::move(deps), loc);
      graph.set_task_flops(id, flops);
      if (model.specified()) graph.set_task_error_model(id, model);
      if (depth > 0.0) graph.set_task_depth(id, depth);
      task_ids[name] = id;
      continue;
    }

    return at(filename, lineno, "unknown directive '" + directive +
                                    "' (want buffer, tolerance, range or task)");
  }
  return graph;
}

pdl::util::Result<starvm::TaskGraph> load_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return pdl::util::Error{"cannot open graph file", path};
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_graph_text(text.str(), path);
}

}  // namespace analysis
