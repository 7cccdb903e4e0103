#ifndef SPA_SUM_SUM_UPDATE_H_
#define SPA_SUM_SUM_UPDATE_H_

#include <vector>

#include "sum/user_model.h"

/// \file
/// The write half of the versioned SUM API: a `SumUpdate` is an
/// inspectable description of one user's model mutation — a batch of
/// primitive ops (set value/sensibility, add evidence, reward/punish
/// reinforcement, decay) that `SumService::Apply` executes atomically
/// against the current state and publishes as a new snapshot version.
/// Writers never touch a `SmartUserModel*` directly; they describe the
/// change and hand it to the service.

namespace spa::sum {

/// \brief One primitive mutation of a user's model.
struct SumOp {
  enum class Kind : uint8_t {
    kSetValue = 0,        ///< value <- amount (clamped to [0,1])
    kSetSensibility,      ///< sensibility <- amount (clamped to [0,1])
    kAddEvidence,         ///< evidence += amount
    kReward,              ///< reinforcement reward, magnitude = amount
    kPunish,              ///< reinforcement punish, magnitude = amount
    kValueFromSensibility,///< value <- current sensibility
    kDecay,               ///< one decay round over `decay_kind`
  };
  Kind kind = Kind::kSetValue;
  /// Target attribute (ignored by kDecay).
  AttributeId attribute = -1;
  /// Value or reinforcement magnitude (ignored by
  /// kValueFromSensibility and kDecay).
  double amount = 0.0;
  /// Attribute kind decayed by kDecay.
  AttributeKind decay_kind = AttributeKind::kEmotional;
};

/// \brief A batch of ops against one user's model.
///
/// Applying an update with no ops still creates the user's model when
/// absent ("touch") and bumps the user's version.
class SumUpdate {
 public:
  SumUpdate() = default;
  explicit SumUpdate(UserId user) : user_(user) {}

  UserId user() const { return user_; }
  const std::vector<SumOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  // ---- chainable builders -----------------------------------------------
  SumUpdate& SetValue(AttributeId attribute, double value);
  SumUpdate& SetSensibility(AttributeId attribute, double sensibility);
  SumUpdate& AddEvidence(AttributeId attribute, double amount);
  /// Reinforcement reward (w += lr * magnitude * (1 - w)).
  SumUpdate& Reward(AttributeId attribute, double magnitude = 1.0);
  /// Reinforcement punish (w -= lr * magnitude * w).
  SumUpdate& Punish(AttributeId attribute, double magnitude = 1.0);
  /// value <- sensibility at apply time (activation tracking).
  SumUpdate& ValueFromSensibility(AttributeId attribute);
  /// One decay round over every attribute of `kind`.
  SumUpdate& Decay(AttributeKind kind);

  /// Captures every non-default (value, sensibility, evidence) of a
  /// scratch model as explicit ops — the bridge from initialisation
  /// code that assembles a model locally (e.g. population bootstrap)
  /// to the service's mutation API.
  static SumUpdate FromModel(const SmartUserModel& model);

 private:
  UserId user_ = 0;
  std::vector<SumOp> ops_;
};

}  // namespace spa::sum

#endif  // SPA_SUM_SUM_UPDATE_H_
