#include "wren/capture.hpp"

#include <exception>
#include <filesystem>
#include <utility>

namespace vw::wren {

CaptureSession::CaptureSession(net::Network& network, std::string dir)
    : network_(network), dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

TraceWriter& CaptureSession::add_host(net::NodeId host) {
  const auto shard = static_cast<std::uint32_t>(writers_.size());
  const std::string path =
      (std::filesystem::path(dir_) / ("trace_host" + std::to_string(host) + ".vwtrace"))
          .string();
  writers_.push_back(std::make_unique<TraceWriter>(network_, host, path, shard));
  if (scope_.enabled()) writers_.back()->set_obs(scope_);
  return *writers_.back();
}

void CaptureSession::set_obs(const obs::Scope& scope) {
  scope_ = scope;
  for (auto& w : writers_) w->set_obs(scope);
}

void CaptureSession::finish() {
  std::exception_ptr first_error;
  for (auto& w : writers_) {
    try {
      w->finish();
    } catch (const std::exception&) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::uint64_t CaptureSession::records_captured() const {
  std::uint64_t n = 0;
  for (const auto& w : writers_) n += w->records_captured();
  return n;
}

}  // namespace vw::wren
