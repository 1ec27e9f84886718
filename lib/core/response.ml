module Types = Jury_controller.Types

type body =
  | Execution of { role : [ `Primary | `Secondary ]; actions : Types.action list }
  | Cache_update of Jury_store.Event.t
  | Network_write of {
      dpid : Jury_openflow.Of_types.Dpid.t;
      flow : Jury_openflow.Of_message.flow_mod;
    }
  | Write_failure of { action : Types.action; reason : string }

type t = {
  controller : int;
  taint : Types.Taint.t;
  snapshot : Snapshot.t;
  sent_at : Jury_sim.Time.t;
  term : int;
  body : body;
}

let body_name = function
  | Execution { role = `Primary; _ } -> "execution/primary"
  | Execution { role = `Secondary; _ } -> "execution/secondary"
  | Cache_update _ -> "cache-update"
  | Network_write _ -> "network-write"
  | Write_failure _ -> "write-failure"

let pp fmt t =
  Format.fprintf fmt "rho(id=%d tau=%a %s %a%s)" t.controller Types.Taint.pp
    t.taint (body_name t.body) Snapshot.pp t.snapshot
    (if t.term > 0 then Printf.sprintf " term=%d" t.term else "")
