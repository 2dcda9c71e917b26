#include "storage/persistence.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace quickview::storage {

namespace {

std::string DocPath(const std::string& dir, uint32_t root) {
  return dir + "/doc_" + std::to_string(root) + ".xml";
}

Status EnsureDir(const std::string& dir) {
  struct stat st;
  if (stat(dir.c_str(), &st) == 0) {
    if ((st.st_mode & S_IFDIR) != 0) return Status::OK();
    return Status::InvalidArgument(dir + " exists and is not a directory");
  }
  if (mkdir(dir.c_str(), 0755) != 0) {
    return Status::Internal("cannot create directory " + dir);
  }
  return Status::OK();
}

}  // namespace

Status SaveDatabase(const xml::Database& database, const std::string& dir) {
  QV_RETURN_IF_ERROR(EnsureDir(dir));
  std::ofstream manifest(dir + "/manifest.qv", std::ios::trunc);
  if (!manifest) return Status::Internal("cannot write manifest in " + dir);
  for (const auto& [name, doc] : database.documents()) {
    manifest << doc->root_component() << " " << name << "\n";
    std::ofstream out(DocPath(dir, doc->root_component()),
                      std::ios::trunc | std::ios::binary);
    if (!out) return Status::Internal("cannot write document " + name);
    out << xml::Serialize(*doc);
  }
  return Status::OK();
}

namespace {

/// Strict digits-only u32 parse for manifest root components. stoul-style
/// parsing is no good here: it throws on junk (crashing the loader on a
/// corrupted manifest) and silently accepts trailing garbage.
bool ParseRootComponent(std::string_view text, uint32_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 0xffffffffu) return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

Result<std::shared_ptr<xml::Database>> LoadDatabase(const std::string& dir) {
  std::ifstream manifest(dir + "/manifest.qv");
  if (!manifest) return Status::NotFound("no manifest in " + dir);
  auto db = std::make_shared<xml::Database>();
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    size_t space = line.find(' ');
    if (space == std::string::npos) {
      return Status::InvalidArgument("malformed manifest line in " + dir +
                                     ": \"" + line + "\"");
    }
    uint32_t root = 0;
    if (!ParseRootComponent(std::string_view(line).substr(0, space), &root)) {
      return Status::InvalidArgument(
          "malformed manifest line in " + dir +
          " (root component is not a number): \"" + line + "\"");
    }
    std::string name = line.substr(space + 1);
    if (name.empty()) {
      return Status::InvalidArgument("malformed manifest line in " + dir +
                                     " (empty document name): \"" + line +
                                     "\"");
    }
    if (db->GetDocumentByRoot(root) != nullptr ||
        db->GetDocument(name) != nullptr) {
      return Status::InvalidArgument(
          "manifest in " + dir +
          " lists the same document twice: \"" + line + "\"");
    }
    std::ifstream in(DocPath(dir, root), std::ios::binary);
    if (!in) {
      return Status::NotFound("missing document file " +
                              DocPath(dir, root) + " for " + name);
    }
    std::ostringstream content;
    content << in.rdbuf();
    QV_ASSIGN_OR_RETURN(std::shared_ptr<xml::Document> doc,
                        xml::ParseXml(content.str(), root));
    db->AddDocument(name, std::move(doc));
  }
  return db;
}

}  // namespace quickview::storage
