// Incremental NDJSON line framing shared by both front ends of
// pivotscale_served: stdin (ServeStream, src/net/worker_pool.*) and TCP
// (src/net/event_loop.*).
//
// A framer turns an arbitrary byte stream into protocol lines:
//   * lines are terminated by '\n'; a trailing '\r' is stripped so CRLF
//     clients (telnet, Windows netcat) speak the same protocol;
//   * an empty line (including a bare "\r\n") is the batch-flush marker
//     and comes out as an empty FramedLine;
//   * a line longer than max_line_bytes is *not* buffered: its bytes are
//     discarded as they arrive and the line surfaces with oversized =
//     true once its terminator shows up, so a hostile or broken client
//     cannot grow the server's memory without bound. Framing resumes
//     cleanly on the next line.
// Feed() may be called with any chunking — byte-at-a-time or megabytes —
// and Finish() flushes a final unterminated line at EOF.
#ifndef PIVOTSCALE_NET_FRAMER_H_
#define PIVOTSCALE_NET_FRAMER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace pivotscale {

// One framed protocol line. `text` has the terminator (and any trailing
// '\r') removed; when `oversized` is set the content was discarded and
// `text` is empty.
struct FramedLine {
  std::string text;
  bool oversized = false;
};

class ReadLineFramer {
 public:
  static constexpr std::size_t kDefaultMaxLineBytes = std::size_t{1} << 20;

  explicit ReadLineFramer(
      std::size_t max_line_bytes = kDefaultMaxLineBytes);

  // Consumes `size` bytes, appending every completed line to `out`.
  void Feed(const char* data, std::size_t size,
            std::vector<FramedLine>* out);

  // Flushes a final line that ended at EOF without a terminator. Returns
  // false (and leaves `out` untouched) when nothing was pending. Resets
  // the framer either way.
  bool Finish(FramedLine* out);

  std::size_t max_line_bytes() const { return max_line_bytes_; }
  std::size_t buffered_bytes() const { return current_.size(); }

 private:
  std::size_t max_line_bytes_;
  std::string current_;
  bool dropping_ = false;  // current line exceeded the limit
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_NET_FRAMER_H_
