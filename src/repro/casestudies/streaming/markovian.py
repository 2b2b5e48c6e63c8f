"""Markovian models of the streaming case study (the paper's Sect. 4.2).

Topology (Fig. 2.b of the paper)::

    S --frame--> AP(buffer) --RSC channel--> NIC --> B(buffer) <--get-- C
                     |  empty/nonempty notices        ^
                     v                                | shutdown/wakeup
                    DPM ------------------------------+

* The server produces a frame every ``frame_period`` on average and pushes
  it into the access-point buffer (capacity ``ap_capacity``; overflow =
  ``lose_frame_ap``).
* The AP transmits buffered frames through the lossy radio channel; a
  frame in flight is delivered only when the NIC is awake (the channel
  blocks while the NIC dozes — the 802.11 PSP access point holds traffic
  for dozing stations).
* The NIC (IEEE 802.11b PSP): awake it forwards frames to the client
  buffer ``B`` (capacity ``b_capacity``; overflow = ``lose_frame_b``);
  a shutdown puts it in doze mode; a wakeup triggers the awaking
  (``nic_awake_time``) and AP-buffer check (``check_time``) sequence.
* The client renders a frame every ``render_period`` after an initial
  buffering delay; a fetch from an empty buffer is a real-time violation
  (``get_miss``).
* The DPM is modelled as an external component, as in the paper: it
  observes AP-buffer empty/nonempty edges, issues a shutdown an average
  ``shutdown_period`` after the buffer empties, and wakes the NIC up
  periodically (``awake_period`` — the PSP listen interval).

Base measures (ratios such as energy-per-frame, loss, miss and quality are
derived by ``repro.experiments.figures.STREAMING.derive``):

* ``nic_power`` — average NIC power draw (W);
* ``frames_received`` — NIC-to-buffer deliveries per ms;
* ``frames_produced`` — server frame generations per ms;
* ``frames_lost`` — buffer-overflow drops (AP + client side) per ms;
* ``frame_misses`` / ``frame_gets`` — real-time violations / fetches per ms.
"""

from __future__ import annotations

from typing import List

from ...aemilia.architecture import ArchiType
from ...aemilia.parser import parse_architecture
from ...ctmc.measure_lang import parse_measures
from ...ctmc.measures import Measure

_CONST_HEADER = """(
    const int ap_capacity := 10,
    const int b_capacity := 10,
    const real frame_period := 67.0,
    const real prop_time := 4.0,
    const real loss_prob := 0.02,
    const real check_time := 5.0,
    const real nic_awake_time := 15.0,
    const real init_delay := 684.0,
    const real render_period := 67.0,
    const real shutdown_period := 5.0,
    const real awake_period := 100.0,
    const real monitor_rate := 1.0)
"""

_SERVER = """
ELEM_TYPE Server_Type(void)
  BEHAVIOR
    Server(void; void) =
      <produce_frame, exp(1 / frame_period)> .
      <send_frame, inf(1, 1)> .
      Server()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS UNI send_frame
"""

_AP_DPM = """
ELEM_TYPE AP_Buffer_Type(void)
  BEHAVIOR
    AP_Buffer(int n := 0; void) =
      choice {
        <receive_frame_ap, _> . AP_Arrived(n),
        cond(n > 0) -> <send_frame_rsc, inf(1, 1)> . AP_Departed(n - 1)
      };
    AP_Arrived(int n; void) =
      choice {
        cond(n > 0 and n < ap_capacity) -> <accept_frame, inf(1, 1)> . AP_Buffer(n + 1),
        cond(n = 0) -> <notify_nonempty, inf(1, 1)> . AP_Buffer(1),
        cond(n = ap_capacity) -> <lose_frame_ap, inf(1, 1)> . AP_Buffer(n)
      };
    AP_Departed(int n; void) =
      choice {
        cond(n = 0) -> <notify_empty, inf(1, 1)> . AP_Buffer(0),
        cond(n > 0) -> <continue_ap, inf(1, 1)> . AP_Buffer(n)
      }
  INPUT_INTERACTIONS UNI receive_frame_ap
  OUTPUT_INTERACTIONS UNI send_frame_rsc; notify_nonempty; notify_empty
"""

_AP_NODPM = """
ELEM_TYPE AP_Buffer_Type(void)
  BEHAVIOR
    AP_Buffer(int n := 0; void) =
      choice {
        <receive_frame_ap, _> . AP_Arrived(n),
        cond(n > 0) -> <send_frame_rsc, inf(1, 1)> . AP_Buffer(n - 1)
      };
    AP_Arrived(int n; void) =
      choice {
        cond(n < ap_capacity) -> <accept_frame, inf(1, 1)> . AP_Buffer(n + 1),
        cond(n = ap_capacity) -> <lose_frame_ap, inf(1, 1)> . AP_Buffer(n)
      }
  INPUT_INTERACTIONS UNI receive_frame_ap
  OUTPUT_INTERACTIONS UNI send_frame_rsc
"""

_CHANNEL = """
ELEM_TYPE Radio_Channel_Type(void)
  BEHAVIOR
    Radio_Channel(void; void) =
      <get_packet, _> .
      <propagate_packet, exp(1 / prop_time)> .
      choice {
        <keep_packet, inf(1, 1 - loss_prob)> . <deliver_packet, inf(1, 1)> . Radio_Channel(),
        <lose_packet, inf(1, loss_prob)> . Radio_Channel()
      }
  INPUT_INTERACTIONS UNI get_packet
  OUTPUT_INTERACTIONS UNI deliver_packet
"""

_NIC_DPM = """
ELEM_TYPE NIC_Type(void)
  BEHAVIOR
    NIC_Awake(void; void) =
      choice {
        <receive_frame_nic, _> . <store_frame, inf(1, 1)> . NIC_Awake(),
        <receive_shutdown, _> . NIC_Doze(),
        <monitor_nic_awake, exp(monitor_rate)> . NIC_Awake()
      };
    NIC_Doze(void; void) =
      choice {
        <receive_wakeup, _> . NIC_Awaking(),
        <monitor_nic_doze, exp(monitor_rate)> . NIC_Doze()
      };
    NIC_Awaking(void; void) =
      choice {
        <awake_nic, exp(1 / nic_awake_time)> . NIC_Checking(),
        <monitor_nic_awaking, exp(monitor_rate)> . NIC_Awaking()
      };
    NIC_Checking(void; void) =
      choice {
        <check_buffer, exp(1 / check_time)> . NIC_Awake(),
        <monitor_nic_checking, exp(monitor_rate)> . NIC_Checking()
      }
  INPUT_INTERACTIONS UNI receive_frame_nic; receive_shutdown; receive_wakeup
  OUTPUT_INTERACTIONS UNI store_frame
"""

_NIC_NODPM = """
ELEM_TYPE NIC_Type(void)
  BEHAVIOR
    NIC_Awake(void; void) =
      choice {
        <receive_frame_nic, _> . <store_frame, inf(1, 1)> . NIC_Awake(),
        <monitor_nic_awake, exp(monitor_rate)> . NIC_Awake()
      }
  INPUT_INTERACTIONS UNI receive_frame_nic
  OUTPUT_INTERACTIONS UNI store_frame
"""

_CLIENT_BUFFER = """
ELEM_TYPE Client_Buffer_Type(void)
  BEHAVIOR
    B_Buffer(int n := 0; void) =
      choice {
        <receive_frame_b, _> . B_Arrived(n),
        cond(n > 0) -> <serve_frame, _> . B_Buffer(n - 1),
        cond(n = 0) -> <report_empty, _> . B_Buffer(0)
      };
    B_Arrived(int n; void) =
      choice {
        cond(n < b_capacity) -> <accept_frame_b, inf(1, 1)> . B_Buffer(n + 1),
        cond(n = b_capacity) -> <lose_frame_b, inf(1, 1)> . B_Buffer(n)
      }
  INPUT_INTERACTIONS UNI receive_frame_b; serve_frame; report_empty
  OUTPUT_INTERACTIONS void
"""

_CLIENT = """
ELEM_TYPE Client_Type(void)
  BEHAVIOR
    Client_Init(void; void) =
      <initial_delay, exp(1 / init_delay)> . Client_Render();
    Client_Render(void; void) =
      <render_frame, exp(1 / render_period)> . Client_Fetch();
    Client_Fetch(void; void) =
      choice {
        <get_ok, inf(1, 1)> . Client_Render(),
        <get_miss, inf(1, 1)> . Client_Render()
      }
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS UNI get_ok; get_miss
"""

_DPM = """
ELEM_TYPE DPM_Type(void)
  BEHAVIOR
    DPM_Awake(bool empty := true; void) =
      choice {
        cond(empty) -> <send_shutdown, exp(1 / shutdown_period)> . DPM_Doze(true),
        <receive_empty_notice, _> . DPM_Awake(true),
        <receive_nonempty_notice, _> . DPM_Awake(false)
      };
    DPM_Doze(bool empty; void) =
      choice {
        <send_wakeup, exp(1 / awake_period)> . DPM_Awake(empty),
        <receive_empty_notice, _> . DPM_Doze(true),
        <receive_nonempty_notice, _> . DPM_Doze(false)
      }
  INPUT_INTERACTIONS UNI receive_empty_notice; receive_nonempty_notice
  OUTPUT_INTERACTIONS UNI send_shutdown; send_wakeup
"""

_TOPOLOGY_DPM = """
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    S : Server_Type();
    AP : AP_Buffer_Type(0);
    RSC : Radio_Channel_Type();
    NIC : NIC_Type();
    B : Client_Buffer_Type(0);
    C : Client_Type();
    DPM : DPM_Type(true)
  ARCHI_ATTACHMENTS
    FROM S.send_frame TO AP.receive_frame_ap;
    FROM AP.send_frame_rsc TO RSC.get_packet;
    FROM RSC.deliver_packet TO NIC.receive_frame_nic;
    FROM NIC.store_frame TO B.receive_frame_b;
    FROM C.get_ok TO B.serve_frame;
    FROM C.get_miss TO B.report_empty;
    FROM AP.notify_empty TO DPM.receive_empty_notice;
    FROM AP.notify_nonempty TO DPM.receive_nonempty_notice;
    FROM DPM.send_shutdown TO NIC.receive_shutdown;
    FROM DPM.send_wakeup TO NIC.receive_wakeup
END
"""

_TOPOLOGY_NODPM = """
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    S : Server_Type();
    AP : AP_Buffer_Type(0);
    RSC : Radio_Channel_Type();
    NIC : NIC_Type();
    B : Client_Buffer_Type(0);
    C : Client_Type()
  ARCHI_ATTACHMENTS
    FROM S.send_frame TO AP.receive_frame_ap;
    FROM AP.send_frame_rsc TO RSC.get_packet;
    FROM RSC.deliver_packet TO NIC.receive_frame_nic;
    FROM NIC.store_frame TO B.receive_frame_b;
    FROM C.get_ok TO B.serve_frame;
    FROM C.get_miss TO B.report_empty
END
"""

MARKOVIAN_DPM_SPEC = (
    "ARCHI_TYPE Streaming_Markov_Dpm" + _CONST_HEADER
    + "ARCHI_ELEM_TYPES"
    + _SERVER + _AP_DPM + _CHANNEL + _NIC_DPM + _CLIENT_BUFFER + _CLIENT
    + _DPM + _TOPOLOGY_DPM
)

MARKOVIAN_NODPM_SPEC = (
    "ARCHI_TYPE Streaming_Markov_Nodpm" + _CONST_HEADER
    + "ARCHI_ELEM_TYPES"
    + _SERVER + _AP_NODPM + _CHANNEL + _NIC_NODPM + _CLIENT_BUFFER + _CLIENT
    + _TOPOLOGY_NODPM
)

#: Base reward structures; ratios are derived in the experiment harness.
MEASURE_SPEC = """
MEASURE nic_power IS
  ENABLED(NIC.monitor_nic_awake)    -> STATE_REWARD(1.4)
  ENABLED(NIC.monitor_nic_checking) -> STATE_REWARD(1.4)
  ENABLED(NIC.monitor_nic_awaking)  -> STATE_REWARD(1.6)
  ENABLED(NIC.monitor_nic_doze)     -> STATE_REWARD(0.075);
MEASURE frames_received IS
  ENABLED(NIC.store_frame) -> TRANS_REWARD(1);
MEASURE frames_produced IS
  ENABLED(S.produce_frame) -> TRANS_REWARD(1);
MEASURE frames_lost IS
  ENABLED(AP.lose_frame_ap) -> TRANS_REWARD(1)
  ENABLED(B.lose_frame_b)   -> TRANS_REWARD(1);
MEASURE frame_misses IS
  ENABLED(C.get_miss) -> TRANS_REWARD(1);
MEASURE frame_gets IS
  ENABLED(C.get_ok)   -> TRANS_REWARD(1)
  ENABLED(C.get_miss) -> TRANS_REWARD(1);
"""


def dpm_architecture() -> ArchiType:
    """Markovian streaming model with the PSP DPM."""
    return parse_architecture(MARKOVIAN_DPM_SPEC)


def nodpm_architecture() -> ArchiType:
    """Markovian streaming model with an always-awake NIC."""
    return parse_architecture(MARKOVIAN_NODPM_SPEC)


def measures() -> List[Measure]:
    """The base reward structures of the streaming study."""
    return parse_measures(MEASURE_SPEC)
