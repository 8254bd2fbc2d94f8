(** A blocking multi-producer/multi-consumer dispatch queue (mutex +
    condition), shared between the server's connection threads (producers)
    and worker domains (consumers). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> bool
(** Enqueue at the back; [false] if the queue is closed (item refused). *)

val push_list : 'a t -> 'a list -> bool
(** Enqueue a list at the back, in list order, under one lock acquisition
    with one consumer wakeup; [false] (and nothing enqueued) if the queue
    is closed.  A blocked {!pop_batch} wakes once and, when the list fits
    its [max], receives the whole list as one batch. *)

val push_front : 'a t -> 'a -> bool
(** Enqueue at the front — used to re-dispatch the claimed request of a
    crashed worker ahead of new traffic. *)

val pop : 'a t -> 'a option
(** Block until an item is available; [None] once the queue is closed and
    drained of nothing (close empties the queue, so [None] means shutdown). *)

val pop_batch : 'a t -> max:int -> 'a list
(** Block until at least one item is available, then return up to [max]
    already-queued items in dispatch order (front/re-dispatched items
    first).  [[]] means the queue was closed — the shutdown signal.  This is
    how workers amortize one admission over a batch. *)

val length : 'a t -> int
(** Items currently queued (front + back).  O(1): the front list keeps a
    counter, so callers polling the backlog don't pay for the re-dispatch
    list length under the mutex. *)

val close : 'a t -> 'a list
(** Close the queue, wake every blocked consumer, and return the items that
    were still pending so the caller can refuse them. *)
