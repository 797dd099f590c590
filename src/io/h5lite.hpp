#pragma once
/// \file h5lite.hpp
/// \brief Minimal hierarchical data container (HDF5 substitute).
///
/// V2D writes checkpoints through parallel HDF5; for this reproduction the
/// I/O path is exercised by a small self-contained format with the same
/// shape: a tree of named groups, each holding typed n-dimensional
/// datasets and scalar attributes.  The on-disk encoding is a flat
/// little-endian stream with a magic header and explicit lengths — enough
/// to round-trip grids and fields, deliberately nothing more.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace v2d::io {

/// Attribute value: the three scalar types V2D writes.
using Attr = std::variant<std::int64_t, double, std::string>;

/// A typed n-dimensional dataset.  Data is stored row-major.
struct Dataset {
  enum class Type : std::uint8_t { F64 = 0, I64 = 1 };
  Type type = Type::F64;
  std::vector<std::uint64_t> dims;
  std::vector<double> f64;
  std::vector<std::int64_t> i64;

  /// Product of the dims; throws v2d::Error when it overflows 64 bits.
  std::uint64_t element_count() const;
};

class Group {
public:
  Group& create_group(const std::string& name);
  bool has_group(const std::string& name) const;
  Group& group(const std::string& name);
  const Group& group(const std::string& name) const;

  void write(const std::string& name, std::span<const double> data,
             std::vector<std::uint64_t> dims);
  void write(const std::string& name, std::span<const std::int64_t> data,
             std::vector<std::uint64_t> dims);
  bool has_dataset(const std::string& name) const;
  const Dataset& dataset(const std::string& name) const;

  void set_attr(const std::string& name, Attr value);
  bool has_attr(const std::string& name) const;
  const Attr& attr(const std::string& name) const;
  double attr_f64(const std::string& name) const;
  std::int64_t attr_i64(const std::string& name) const;
  std::string attr_str(const std::string& name) const;

  const std::map<std::string, std::unique_ptr<Group>>& groups() const {
    return groups_;
  }
  const std::map<std::string, Dataset>& datasets() const { return datasets_; }
  const std::map<std::string, Attr>& attrs() const { return attrs_; }

private:
  friend class H5File;
  std::map<std::string, std::unique_ptr<Group>> groups_;
  std::map<std::string, Dataset> datasets_;
  std::map<std::string, Attr> attrs_;
};

class H5File {
public:
  H5File() : root_(std::make_unique<Group>()) {}

  Group& root() { return *root_; }
  const Group& root() const { return *root_; }

  /// Serialize to / parse from a byte buffer (tests exercise this without
  /// touching the filesystem).
  std::vector<std::uint8_t> serialize() const;
  static H5File deserialize(std::span<const std::uint8_t> bytes);

  void save(const std::string& path) const;
  static H5File load(const std::string& path);

private:
  std::unique_ptr<Group> root_;
};

}  // namespace v2d::io
