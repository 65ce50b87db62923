#include "net/rpc.hpp"

#include <stdexcept>
#include <string>

namespace dstage::net {

void Rpc::give_up(EndpointId dst, const Message& request, const char* why) {
  ++stats_.exhausted;
  check_peer(dst, request);
  throw std::runtime_error(std::string("rpc ") + message_name(request) + why);
}

}  // namespace dstage::net
