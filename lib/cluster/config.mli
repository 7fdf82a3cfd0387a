(** Cluster configuration: everything needed to stand up a simulated
    testbed like the paper's (M workstations, N Ethernets, one
    replication style). *)

type t = {
  num_nodes : int;
  num_nets : int;
  style : Totem_rrp.Style.t;
  const : Totem_srp.Const.t;  (** SRP tunables and CPU cost model *)
  rrp : Totem_rrp.Rrp_config.t;
  net : Totem_net.Network.config;  (** applied to every network... *)
  net_configs : Totem_net.Network.config array option;
      (** ...unless per-network configs are given *)
  buffer_bytes : int;  (** socket receive buffer per NIC (64 KB, Sec. 8) *)
  seed : int;
  codec_shadow : bool;
      (** validate the binary codec against every frame the cluster
          carries: each payload is encoded and decoded back, and any
          mismatch aborts the run (testing aid); in wire mode the check
          runs on the payload the receiving NIC decoded *)
  wire_bytes : bool;
      (** byte-faithful wire mode: every payload is serialized through
          {!Totem_srp.Codec} with a CRC-32 trailer at the sending NIC
          and CRC-checked, totally decoded and validated at the
          receiving NIC; failures discard the frame exactly as loss.
          Timing-neutral absent corruption — the charged sizes do not
          change — but makes the corruption fault model
          ({!Totem_net.Fault.set_corruption_probability}) bit-accurate *)
  wire_cache : bool;
      (** encode-once/decode-once frame caching in wire mode (default
          [true]): one logical frame is serialized once for its
          N-network fan-out and a byte string decoded once for its
          M receivers, keyed on physical identity — corruption always
          substitutes fresh strings, so damaged copies miss the cache
          and take the full discard pipeline. [false] re-encodes and
          re-decodes every copy (the A/B baseline the equivalence
          tests compare against). Ignored unless [wire_bytes] *)
  sim_domains : int;
      (** worker domains for the simulator core (default [1]). The
          cluster is always partitioned into one event domain per node
          plus a coordinator, synchronized by conservative lookahead
          (the minimum network latency); this only sets how many OCaml
          domains execute the partitions. Figures, telemetry streams
          and chaos replays are bitwise-identical for every value.
          Must be [>= 1] *)
}

val make :
  ?num_nodes:int ->
  ?num_nets:int ->
  ?style:Totem_rrp.Style.t ->
  ?const:Totem_srp.Const.t ->
  ?rrp:Totem_rrp.Rrp_config.t ->
  ?net:Totem_net.Network.config ->
  ?net_configs:Totem_net.Network.config array ->
  ?buffer_bytes:int ->
  ?seed:int ->
  ?codec_shadow:bool ->
  ?wire_bytes:bool ->
  ?wire_cache:bool ->
  ?sim_domains:int ->
  unit ->
  t
(** Defaults: the paper's four-node, two-network testbed with passive
    replication, default protocol constants, 100 Mbit/s switched
    Ethernets, 64 KB socket buffers, seed 42. *)

val paper_testbed : num_nodes:int -> style:Totem_rrp.Style.t -> t
(** The Sec. 8 configuration: [num_nodes] hosts (4 or 6 in the paper),
    two 100 Mbit/s Ethernets. With [No_replication] only network 0 is
    used, exactly like the paper's baseline runs. *)

val min_net_latency : t -> Totem_engine.Vtime.t
(** Minimum configured network latency — the conservative lookahead
    bound the simulator core synchronizes on. *)

val validate : t -> (unit, string) result
(** [Error] names the first offending field, e.g.
    ["sim_domains must be >= 1"]. {!Cluster.create} rejects an invalid
    config with it. *)
