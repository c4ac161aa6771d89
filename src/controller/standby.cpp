#include "controller/standby.hpp"

#include <cassert>
#include <utility>

namespace pleroma::ctrl {

StandbyController::StandbyController(Controller& primary)
    : space_(primary.space()),
      network_(primary.network()),
      scope_(primary.scope()),
      config_(primary.config()),
      source_(&primary) {
  // Mid-stream attach cannot be replayed faithfully (tree shapes depend on
  // the full operation interleaving); the standby must see history from the
  // first command.
  assert(primary.advertisementCount() == 0 && primary.subscriptionCount() == 0);
  follow(primary);
}

StandbyController::StandbyController(Controller& promoted,
                                     const StandbyController& predecessor)
    : space_(predecessor.space_),
      network_(predecessor.network_),
      scope_(predecessor.scope_),
      config_(predecessor.config_),
      source_(&promoted),
      log_(predecessor.log_) {
  follow(promoted);
}

StandbyController::~StandbyController() {
  if (source_ != nullptr) source_->setIntentObserver(nullptr);
}

void StandbyController::follow(Controller& source) {
  source.setIntentObserver(
      [this](const IntentCommand& cmd) { log_.push_back(cmd); });
}

std::unique_ptr<Controller> StandbyController::promote() {
  if (source_ != nullptr) {
    source_->setIntentObserver(nullptr);
    source_ = nullptr;
  }
  auto next = std::make_unique<Controller>(space_, network_, scope_, config_);
  // Muted replay: FlowInstaller updates the per-switch mirror before it
  // hands mods to the channel, so with the channel muted the replay builds
  // the full intent mirror without transmitting, applying, or counting a
  // single wire message — and without drawing from the fault Rng, which
  // keeps promotion byte-identical across fault seeds.
  next->channel().setMuted(true);
  for (const IntentCommand& cmd : log_) replay(*next, cmd);
  next->channel().setMuted(false);
  return next;
}

void StandbyController::replay(Controller& target, const IntentCommand& cmd) {
  switch (cmd.kind) {
    case IntentCommand::Kind::kAdvertise: {
      [[maybe_unused]] const PublisherId id =
          target.advertiseEndpoint(cmd.endpoint, cmd.dzSet, cmd.rect);
      assert(id == cmd.id);
      break;
    }
    case IntentCommand::Kind::kUnadvertise:
      target.unadvertise(cmd.id);
      break;
    case IntentCommand::Kind::kSubscribe: {
      [[maybe_unused]] const SubscriptionId id =
          target.subscribeEndpoint(cmd.endpoint, cmd.dzSet, cmd.rect);
      assert(id == cmd.id);
      break;
    }
    case IntentCommand::Kind::kUnsubscribe:
      target.unsubscribe(cmd.id);
      break;
    case IntentCommand::Kind::kLinkDown:
      target.onLinkDown(cmd.link);
      break;
    case IntentCommand::Kind::kLinkUp:
      target.onLinkUp(cmd.link);
      break;
    case IntentCommand::Kind::kSwitchDown:
      target.onSwitchDown(cmd.node);
      break;
    case IntentCommand::Kind::kSwitchUp:
      target.onSwitchUp(cmd.node);
      break;
    case IntentCommand::Kind::kReindex:
      target.reindex(cmd.dims);
      break;
  }
}

}  // namespace pleroma::ctrl
