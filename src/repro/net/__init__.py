"""Link-layer functionality: message authentication.

Bracha's model assumes *authenticated* reliable point-to-point links: the
receiver of a message knows which process sent it, and faulty processes
cannot forge messages on behalf of correct ones.  The simulator passes the
true sender out of band (the usual idealization); :mod:`repro.net.auth`
implements the MAC machinery explicitly so the idealization is backed by
working code; the TCP transport (:mod:`repro.runtime.tcp`) tags every
frame with it.
"""

from .auth import AuthenticationError, Authenticator, KeyRing

__all__ = ["AuthenticationError", "Authenticator", "KeyRing"]
