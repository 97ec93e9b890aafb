type config = { period : float; suspect_after : int }

let default_config = { period = 25.0; suspect_after = 3 }

let validate c =
  if c.period <= 0.0 then invalid_arg "Detector: period must be positive";
  if c.suspect_after < 1 then invalid_arg "Detector: suspect_after must be >= 1"

type t = {
  me : int;
  config : config;
  last_heard : float array;
  is_suspected : bool array;
  (* Scoped monitoring (partial replication): only watched peers are ever
     suspected.  Everyone is watched by default; sharding narrows the mask
     to the rings of the shards the node subscribes to — silence from any
     other node drives no decision here. *)
  watched : bool array;
  mutable suspect_events : int;
  mutable unsuspect_events : int;
}

let create config ~nodes ~me ~now =
  validate config;
  if nodes < 1 then invalid_arg "Detector.create: nodes must be >= 1";
  if me < 0 || me >= nodes then invalid_arg "Detector.create: me out of range";
  {
    me;
    config;
    last_heard = Array.make nodes now;
    is_suspected = Array.make nodes false;
    watched = Array.make nodes true;
    suspect_events = 0;
    unsuspect_events = 0;
  }

let set_watched t ~peer watched =
  if peer < 0 || peer >= Array.length t.watched then
    invalid_arg "Detector.set_watched: peer out of range";
  t.watched.(peer) <- watched;
  if (not watched) && t.is_suspected.(peer) then t.is_suspected.(peer) <- false

let watched t ~peer = t.watched.(peer)

let heard t ~peer ~now =
  t.last_heard.(peer) <- Float.max t.last_heard.(peer) now;
  if t.is_suspected.(peer) then begin
    t.is_suspected.(peer) <- false;
    t.unsuspect_events <- t.unsuspect_events + 1;
    true
  end
  else false

let silence_limit t = float_of_int t.config.suspect_after *. t.config.period

let tick t ~now =
  let newly = ref [] in
  for peer = Array.length t.last_heard - 1 downto 0 do
    if
      peer <> t.me
      && t.watched.(peer)
      && (not t.is_suspected.(peer))
      && now -. t.last_heard.(peer) > silence_limit t
    then begin
      t.is_suspected.(peer) <- true;
      t.suspect_events <- t.suspect_events + 1;
      newly := peer :: !newly
    end
  done;
  !newly

let reset t ~now =
  (* A node heard nothing while it was down; without this, its first tick
     after a restart would suspect every peer at once (and promote itself
     for bases it merely failed to hear about). *)
  Array.fill t.last_heard 0 (Array.length t.last_heard) now;
  Array.fill t.is_suspected 0 (Array.length t.is_suspected) false

let stale t ~peer ~now =
  t.is_suspected.(peer) || now -. t.last_heard.(peer) > silence_limit t

let suspected t peer = t.is_suspected.(peer)

let suspected_now t =
  let acc = ref [] in
  for peer = Array.length t.is_suspected - 1 downto 0 do
    if t.is_suspected.(peer) then acc := peer :: !acc
  done;
  !acc

let suspect_events t = t.suspect_events

let unsuspect_events t = t.unsuspect_events
