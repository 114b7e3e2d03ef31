// Small string helpers shared by the XML parser, pragma parser and codegen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pdl::util {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on a single character, trimming each field and dropping empties.
std::vector<std::string> split_trimmed(std::string_view s, char sep);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// Parse a base-10 integer; nullopt on any non-numeric content.
std::optional<std::int64_t> parse_int(std::string_view s);

/// Parse a floating-point value; nullopt on any non-numeric content.
std::optional<double> parse_double(std::string_view s);

/// "1:4:2" -> file:line:col display helper used by diagnostics.
std::string location_string(std::string_view file, int line, int column);

/// Read an entire file; nullopt if it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

/// Write an entire file; false if it cannot be written.
bool write_file(const std::string& path, std::string_view contents);

}  // namespace pdl::util
