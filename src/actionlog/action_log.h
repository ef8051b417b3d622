#ifndef INFLUMAX_ACTIONLOG_ACTION_LOG_H_
#define INFLUMAX_ACTIONLOG_ACTION_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace influmax {

/// One row of the action log relation L(User, Action, Time): user `user`
/// performed action `action` at time `time`.
struct ActionTuple {
  NodeId user = 0;
  ActionId action = 0;
  Timestamp time = 0.0;

  friend bool operator==(const ActionTuple&, const ActionTuple&) = default;
};

/// A user's participation in one action (per-user index entry).
struct UserAction {
  ActionId action = 0;
  Timestamp time = 0.0;
};

/// Immutable action log L, stored sorted by (action, time, user) — the
/// order Algorithm 2 of the paper scans it in. Provides:
///  * per-action chronological traces ("propagations"),
///  * per-user action indexes (A_u counts and t(u, a) lookups),
///  * summary statistics (Table 1).
///
/// A user performs an action at most once (enforced at build time by
/// keeping the earliest tuple, matching the paper's data model).
class ActionLog {
 public:
  ActionLog() = default;

  /// Node-id space this log refers to (== graph num_nodes by convention).
  NodeId num_users() const { return num_users_; }

  /// Number of distinct actions (dense ids 0..num_actions-1).
  ActionId num_actions() const {
    return static_cast<ActionId>(action_offsets_.empty()
                                     ? 0
                                     : action_offsets_.size() - 1);
  }

  /// Total number of tuples |L|.
  std::size_t num_tuples() const { return tuples_.size(); }

  /// Chronological propagation trace of action `a` (ties in time are
  /// ordered by user id; consumers must treat equal-time tuples as
  /// mutually non-influencing).
  std::span<const ActionTuple> ActionTrace(ActionId a) const {
    return {tuples_.data() + action_offsets_[a],
            tuples_.data() + action_offsets_[a + 1]};
  }

  /// Number of users who performed action `a` (propagation size).
  NodeId ActionSize(ActionId a) const {
    return static_cast<NodeId>(action_offsets_[a + 1] - action_offsets_[a]);
  }

  /// A_u: number of actions user `u` performed.
  std::uint32_t ActionsPerformedBy(NodeId u) const {
    return static_cast<std::uint32_t>(user_offsets_[u + 1] -
                                      user_offsets_[u]);
  }

  /// Actions performed by `u`, sorted by action id.
  std::span<const UserAction> UserActions(NodeId u) const {
    return {user_actions_.data() + user_offsets_[u],
            user_actions_.data() + user_offsets_[u + 1]};
  }

  /// t(u, a), or kNeverPerformed when u never performed a. O(log A_u).
  Timestamp TimeOf(NodeId u, ActionId a) const;

  /// True iff u performed a.
  bool Performed(NodeId u, ActionId a) const {
    return TimeOf(u, a) != kNeverPerformed;
  }

  /// All tuples, sorted by (action, time, user).
  const std::vector<ActionTuple>& tuples() const { return tuples_; }

  /// The action id this dense id had in the builder's input (useful when
  /// correlating sub-logs with the original log).
  std::uint32_t OriginalActionId(ActionId a) const {
    return original_action_id_[a];
  }

  /// Restriction of this log to the given actions: a new log containing
  /// only their tuples, with actions renumbered densely in the given
  /// order. Original ids are preserved through OriginalActionId() chains.
  ActionLog RestrictToActions(const std::vector<ActionId>& actions) const;

  /// Restriction of this log to tuples whose user is in `user_new_id`
  /// (original id -> new id, kInvalidNode = drop), renumbering users.
  /// Actions that lose all tuples are dropped. Used when carving a
  /// community sub-dataset (Section 3 of the paper).
  ActionLog RestrictToUsers(const std::vector<NodeId>& user_new_id,
                            NodeId new_num_users) const;

  /// Approximate heap footprint in bytes.
  std::uint64_t MemoryBytes() const;

 private:
  friend class ActionLogBuilder;

  NodeId num_users_ = 0;
  std::vector<ActionTuple> tuples_;          // sorted (action, time, user)
  std::vector<std::uint64_t> action_offsets_;  // size num_actions+1
  std::vector<std::uint64_t> user_offsets_;    // size num_users+1
  std::vector<UserAction> user_actions_;       // CSR payload, per-user
  std::vector<std::uint32_t> original_action_id_;  // dense -> input id
};

/// Accumulates raw (user, action, time) triples and freezes them into an
/// ActionLog. Input action ids are arbitrary uint32 values and are
/// densified; duplicate (user, action) pairs keep the earliest time.
class ActionLogBuilder {
 public:
  explicit ActionLogBuilder(NodeId num_users) : num_users_(num_users) {}

  /// Queues one tuple. Out-of-range users are reported at Build() time.
  void Add(NodeId user, std::uint32_t action, Timestamp time) {
    raw_.push_back({user, action, time});
  }

  /// Validates, densifies actions, dedupes, sorts, and builds indexes.
  /// The builder is left empty and reusable.
  Result<ActionLog> Build();

 private:
  struct RawTuple {
    NodeId user;
    std::uint32_t action;
    Timestamp time;
  };

  NodeId num_users_;
  std::vector<RawTuple> raw_;
};

/// Summary statistics for Table 1 of the paper.
struct ActionLogStats {
  NodeId num_users = 0;
  ActionId num_propagations = 0;   // distinct actions
  std::size_t num_tuples = 0;
  double avg_propagation_size = 0.0;
  NodeId max_propagation_size = 0;
  double avg_actions_per_user = 0.0;  // over users with >= 1 action
  NodeId active_users = 0;            // users with >= 1 action
};

/// Computes summary statistics of `log` in one pass.
ActionLogStats ComputeActionLogStats(const ActionLog& log);

}  // namespace influmax

#endif  // INFLUMAX_ACTIONLOG_ACTION_LOG_H_
