// lfsck: offline consistency check of an LFS disk image.
//
//   usage: lfsck <image> [--fast] [--json]
//
// Exit code 0 if the image is consistent (warnings allowed), 1 on
// corruption, 2 if the image cannot be understood at all. --fast skips
// payload CRC verification (reads only metadata instead of the whole log).
// --json prints a machine-readable report (counters plus per-invariant
// findings) on stdout instead of the human-readable rendering; exit codes
// are unchanged. The image is opened read-only and never resized, so a
// truncated image fails the superblock's geometry check (exit 2).

#include <cstdio>
#include <cstring>
#include <string>

#include "src/lfs/check.h"
#include "tools/open_image.h"

using namespace lfs;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <image> [--fast] [--json]\n", argv[0]);
    return 2;
  }
  CheckOptions options;
  bool json = false;
  for (int i = 2; i < argc; i++) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      options.verify_payload_crcs = false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    }
  }

  auto disk = OpenImage(argv[1]);
  if (!disk.ok()) {
    std::fprintf(stderr, "lfsck: %s\n", disk.status().ToString().c_str());
    return 2;
  }
  auto report = CheckLfsImage(disk->get(), options);
  if (!report.ok()) {
    std::fprintf(stderr, "lfsck: %s\n", report.status().ToString().c_str());
    return 2;
  }
  if (json) {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    for (const std::string& msg : report->messages) {
      std::printf("%s\n", msg.c_str());
    }
    std::printf("%s\n", report->Summary().c_str());
  }
  return report->ok() ? 0 : 1;
}
