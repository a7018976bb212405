// Minimal intrusive doubly-linked list.
//
// Used for wait queues (awaiters must unlink themselves in O(1) when a
// coroutine frame is destroyed mid-wait) and for cache LRU chains.
#pragma once

#include <cstddef>

#include "common/assert.h"

namespace ordma {

struct ListNode {
  ListNode* prev = nullptr;
  ListNode* next = nullptr;

  ListNode() = default;
  // Copying a node never copies its list membership.
  ListNode(const ListNode&) {}
  ListNode& operator=(const ListNode&) { return *this; }

  bool linked() const { return prev != nullptr; }

  void unlink() {
    ORDMA_CHECK(linked());
    prev->next = next;
    next->prev = prev;
    prev = next = nullptr;
  }
};

// T must derive from ListNode (possibly through a named hook member — see
// MemberHookList below for the member-hook variant).
template <typename T>
class IntrusiveList {
 public:
  IntrusiveList() { head_.prev = head_.next = &head_; }

  bool empty() const { return head_.next == &head_; }

  void push_back(T* x) {
    ListNode* n = x;
    ORDMA_CHECK(!n->linked());
    n->prev = head_.prev;
    n->next = &head_;
    head_.prev->next = n;
    head_.prev = n;
    ++size_;
  }

  void push_front(T* x) {
    ListNode* n = x;
    ORDMA_CHECK(!n->linked());
    n->next = head_.next;
    n->prev = &head_;
    head_.next->prev = n;
    head_.next = n;
    ++size_;
  }

  T* front() const {
    return empty() ? nullptr : static_cast<T*>(head_.next);
  }
  T* back() const {
    return empty() ? nullptr : static_cast<T*>(head_.prev);
  }

  T* pop_front() {
    T* x = front();
    if (x) erase(x);
    return x;
  }
  T* pop_back() {
    T* x = back();
    if (x) erase(x);
    return x;
  }

  void erase(T* x) {
    static_cast<ListNode*>(x)->unlink();
    --size_;
  }

  // Move to MRU position (back).
  void touch(T* x) {
    erase(x);
    push_back(x);
  }

  std::size_t size() const { return size_; }

  // Iteration (forward). Safe against erasing the current element if the
  // next pointer is captured first; helpers below do that.
  template <typename F>
  void for_each(F&& f) const {
    for (ListNode* n = head_.next; n != &head_;) {
      ListNode* next = n->next;
      f(static_cast<T*>(n));
      n = next;
    }
  }

  // First element, front to back, for which pred holds; nullptr if none.
  // Stops at the match instead of walking the rest of the list.
  template <typename Pred>
  T* find_first(Pred&& pred) const {
    for (ListNode* n = head_.next; n != &head_; n = n->next) {
      if (pred(static_cast<T*>(n))) return static_cast<T*>(n);
    }
    return nullptr;
  }

 private:
  ListNode head_;
  std::size_t size_ = 0;
};

}  // namespace ordma
