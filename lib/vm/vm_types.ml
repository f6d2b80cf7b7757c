(** Core virtual-memory data structures (§5 of the paper).

    Memory objects and resident pages reference each other, so both
    records live here; the operation modules ({!Vm_object}, {!Vm_page},
    {!Vm_map}, {!Fault}, …) work over these types.

    Divergence note: the paper keeps a single global virtual-to-physical
    hash table chained through resident page structures plus a per-object
    page list. We keep one hash table per object, which serves both
    roles — lookup by (object, offset) and expedient teardown — with the
    same asymptotics. *)

module Waitq = Mach_sim.Waitq
module Ivar = Mach_sim.Ivar
module Metrics = Mach_util.Metrics

type port = Mach_ipc.Message.port

(** Inheritance attribute of an address range (§3.3, [vm_inherit]). *)
type inheritance = Inherit_share | Inherit_copy | Inherit_none

let inheritance_to_string = function
  | Inherit_share -> "share"
  | Inherit_copy -> "copy"
  | Inherit_none -> "none"

(** Which queue a resident page is on (§5.4). [Q_laundry] is the
    cleaning state of the dirty-page lifecycle: the page is resident and
    busy while a [pager_data_write] naming it is outstanding; a refault
    waits on the busy machinery instead of re-requesting from the pager.

    {v
      active/inactive --launder--> laundry (busy-cleaning)
           ^                          |
           |            release_write |         rescue timeout
           +--(clean-resident, no  <--+--> freed (continued pressure,
               pressure: deactivate)        flush, or double-paging)
    v} *)
type queue_state = Q_none | Q_active | Q_inactive | Q_laundry

type obj = {
  obj_id : int;
  mutable obj_size : int;  (** bytes *)
  mutable pager : pager_binding;
  obj_pages : (int, page) Hashtbl.t;  (** page-aligned offset → resident page *)
  mutable ref_count : int;  (** address-map references *)
  mutable can_persist : bool;  (** data manager called pager_cache(true) *)
  mutable backing : backing option;  (** shadow chain: where to look next *)
  mutable temporary : bool;
      (** contents need not outlive the object (shadow / anonymous) *)
  mutable obj_alive : bool;
  mutable paging_in_progress : int;  (** in-flight pager operations *)
  mutable shadowers : obj list;
      (** live objects whose [backing] points here — the copy engine
          walks this from the deallocate path to collapse chains that
          a write fault would never revisit *)
}

and backing = { back_obj : obj; back_offset : int }

and pager_binding =
  | No_pager  (** anonymous memory, never paged out: zero-fill *)
  | Pager of extpager

and extpager = {
  memory_object : port;  (** manager holds receive rights *)
  mutable request_port : port option;  (** kernel holds receive rights *)
  mutable name_port : port option;
  mutable initialized : bool;
  init_wait : unit Ivar.t;
  is_default : bool;  (** trusted default pager (§6.2.2) *)
  mutable pager_dead : bool;
      (** the manager's object port died; outstanding and future
          requests resolve locally (zero-fill or fault error) *)
}

and page = {
  mutable frame : int;  (** physical frame holding the data *)
  mutable p_obj : obj;
  mutable p_offset : int;  (** page-aligned offset within p_obj *)
  mutable wire_count : int;
  mutable busy : bool;  (** in transit (pagein/pageout); waiters queue *)
  mutable absent : bool;  (** placeholder: data requested, not yet arrived *)
  mutable p_error : bool;  (** the data request failed *)
  busy_wait : Waitq.t;
  mutable page_lock : Mach_hw.Prot.t;  (** accesses forbidden by the manager *)
  mutable unlock_requested : bool;  (** pager_data_unlock already sent *)
  mutable dirty : bool;
  mutable q_state : queue_state;
  mutable q_node : page Mach_util.Dlist.node option;
  mutable mappings : (Mach_hw.Pmap.t * int) list;  (** (pmap, vpn) validations *)
  mutable grant_hold : int;
      (** faulters that just validated a translation and have not yet
          retried the access. A manager flush waits for the holds to
          drain, so a freshly granted page is used at least once before
          it is surrendered — otherwise two kernels write-sharing a hot
          page can revoke each other's grants forever (the Li & Hudak
          ping-pong livelock). *)
  mutable cluster_spec : bool;
      (** speculative cluster-in placeholder: requested as a neighbor of
          a hard fault, no faulter has asked for it yet. A fault that
          lands on such a page re-requests it individually (the manager
          may have answered the cluster only partially), and stale
          placeholders are reclaimed rather than waited on. *)
}

(** What to do with a laundered page once the manager releases the
    data: keep it resident and clean (absorbing refaults), or free it
    (flush semantics — the page must leave the cache). [`Keep] still
    frees the frame when memory pressure persists at release time. *)
type dispose = Dispose_keep | Dispose_free

(** A run of adjacent dirty pages shipped to a data manager by one
    [pager_data_write]. The pages stay resident and busy-cleaning
    (laundry queue) until the manager releases the data — or until the
    kernel rescues itself by paging the run out to the default pager
    (§6.2.2 double paging). Pages detached before the release arrives
    (object termination) park their frames in [h_frames] instead. *)
type holding = {
  h_write_id : int;
  h_obj : obj;
  h_offset : int;  (** run start *)
  h_data : bytes;  (** run contents as shipped, for the §6.2.2 rescue *)
  mutable h_pages : page list;  (** resident cleaning pages, offset order *)
  mutable h_frames : int list;  (** parked frames of detached pages *)
  h_dispose : dispose;
  mutable h_released : bool;
}

(** Kernel VM statistics, in the spirit of [vm_statistics] (Table 3-3); keys ["vm.*"]. *)
type stats = {
  s_group : Metrics.group;
  s_faults : Metrics.counter;
  s_zero_fill : Metrics.counter;
  s_cow_faults : Metrics.counter;
  s_pageins : Metrics.counter;
  s_pageouts : Metrics.counter;
  s_hits : Metrics.counter;  (** faults satisfied by a resident page *)
  s_reactivations : Metrics.counter;
  s_unlock_requests : Metrics.counter;
  s_flushes : Metrics.counter;
  s_objects_created : Metrics.counter;
  s_pages_freed : Metrics.counter;
  s_data_requests : Metrics.counter;
  s_data_provided : Metrics.counter;
  s_data_unavailable : Metrics.counter;
  s_pageout_to_default : Metrics.counter;  (** §6.2.2 double-paging rescues *)
  s_collapses : Metrics.counter;  (** shadow chains merged away *)
  s_fast_faults : Metrics.counter;  (** resolved entirely on the fault fast path *)
  s_hint_hits : Metrics.counter;  (** map lookups answered by the per-map hint *)
  s_hint_misses : Metrics.counter;  (** map lookups that fell back to binary search *)
  s_burst_entered : Metrics.counter;  (** neighbor translations pre-entered after a fault *)
  s_cluster_pages : Metrics.counter;  (** extra pages asked for by clustered data requests *)
  s_slow_busy : Metrics.counter;  (** slow-path entries: waited on a busy page *)
  s_slow_lock : Metrics.counter;  (** slow-path entries: waited on a manager unlock *)
  s_slow_pager : Metrics.counter;  (** slow-path entries: issued a pager request *)
  s_data_writes : Metrics.counter;  (** pager_data_write messages (one per run) *)
  s_laundered : Metrics.counter;  (** pages written back while kept resident *)
  s_clean_hits : Metrics.counter;  (** refaults absorbed by a cleaning/clean-resident page *)
  s_pager_deaths : Metrics.counter;  (** manager object ports that died *)
  s_death_zero_fills : Metrics.counter;
      (** placeholder pages zero-filled when their pager died *)
  s_death_errors : Metrics.counter;
      (** placeholder pages failed with an error when their pager died *)
  s_cow_steals : Metrics.counter;
      (** COW resolutions that renamed the page up the chain instead of
          copying it (sole user: no copy, no 400 µs charge) *)
  s_cow_batched : Metrics.counter;
      (** extra pending-copy pages resolved by a neighbor's COW fault *)
  s_slow_error : Metrics.counter;  (** slow-path entries: fault on an error page *)
  s_chain_depth_peak : Metrics.counter;  (** deepest shadow chain walked by a fault *)
  s_object_cache_evictions : Metrics.counter;
      (** cached persistent objects terminated by LRU pressure *)
}

let create_stats () =
  let s_group = Metrics.group () in
  let c = Metrics.counter s_group in
  let s_faults = c "faults" in
  let s_zero_fill = c "zero_fill" in
  let s_cow_faults = c "cow_faults" in
  let s_pageins = c "pageins" in
  let s_pageouts = c "pageouts" in
  let s_hits = c "hits" in
  let s_reactivations = c "reactivations" in
  let s_unlock_requests = c "unlock_requests" in
  let s_flushes = c "flushes" in
  let s_objects_created = c "objects_created" in
  let s_pages_freed = c "pages_freed" in
  let s_data_requests = c "data_requests" in
  let s_data_provided = c "data_provided" in
  let s_data_unavailable = c "data_unavailable" in
  let s_pageout_to_default = c "pageout_to_default" in
  let s_collapses = c "collapses" in
  let s_fast_faults = c "fast_faults" in
  let s_hint_hits = c "hint_hits" in
  let s_hint_misses = c "hint_misses" in
  let s_burst_entered = c "burst_entered" in
  let s_cluster_pages = c "cluster_pages" in
  let s_slow_busy = c "slow_busy" in
  let s_slow_lock = c "slow_lock" in
  let s_slow_pager = c "slow_pager" in
  let s_data_writes = c "data_writes" in
  let s_laundered = c "laundered" in
  let s_clean_hits = c "clean_hits" in
  let s_pager_deaths = c "pager_deaths" in
  let s_death_zero_fills = c "death_zero_fills" in
  let s_death_errors = c "death_errors" in
  let s_cow_steals = c "cow_steals" in
  let s_cow_batched = c "cow_batched" in
  let s_slow_error = c "slow_error" in
  let s_chain_depth_peak = c "chain_depth_peak" in
  let s_object_cache_evictions = c "object_cache_evictions" in
  { s_group; s_faults; s_zero_fill; s_cow_faults; s_pageins; s_pageouts; s_hits; s_reactivations;
    s_unlock_requests; s_flushes; s_objects_created; s_pages_freed; s_data_requests;
    s_data_provided; s_data_unavailable; s_pageout_to_default; s_collapses; s_fast_faults;
    s_hint_hits; s_hint_misses; s_burst_entered; s_cluster_pages; s_slow_busy; s_slow_lock;
    s_slow_pager; s_data_writes; s_laundered; s_clean_hits; s_pager_deaths; s_death_zero_fills;
    s_death_errors; s_cow_steals; s_cow_batched; s_slow_error; s_chain_depth_peak;
    s_object_cache_evictions }
