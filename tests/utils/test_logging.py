"""Logger configuration: NullHandler idempotence under manager resets."""

from __future__ import annotations

import logging

from repro.utils.logging import get_logger


class TestGetLogger:
    def test_prefixes_names_into_the_repro_hierarchy(self):
        assert get_logger("core.dynamics").name == "repro.core.dynamics"
        assert get_logger("repro.campaign").name == "repro.campaign"

    def test_adds_exactly_one_null_handler(self):
        logger = get_logger("utils.test_once")
        assert get_logger("utils.test_once") is logger
        get_logger("utils.test_once")
        null_handlers = [
            h for h in logger.handlers if isinstance(h, logging.NullHandler)
        ]
        assert len(null_handlers) == 1

    def test_survives_handler_reset(self):
        # Regression: the old module-global _CONFIGURED set remembered the
        # *name* forever, so a logger whose handlers were cleared (pytest
        # and app harnesses reset the logging manager) stayed bare and
        # warned "no handler could be found".  Keying off the logger's own
        # handlers re-adds the NullHandler after any reset.
        logger = get_logger("utils.test_reset")
        logger.handlers.clear()  # what a manager/test-harness reset does
        logger = get_logger("utils.test_reset")
        assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)

    def test_level_applied_when_given(self):
        logger = get_logger("utils.test_level", level=logging.DEBUG)
        assert logger.level == logging.DEBUG

    def test_respects_foreign_handlers(self):
        # A caller-installed handler must not suppress the NullHandler add
        # (it is not a NullHandler), nor be removed.
        logger = logging.getLogger("repro.utils.test_foreign")
        stream = logging.StreamHandler()
        logger.addHandler(stream)
        try:
            logger = get_logger("utils.test_foreign")
            kinds = [type(h) for h in logger.handlers]
            assert logging.StreamHandler in kinds
            assert logging.NullHandler in kinds
        finally:
            logger.handlers.clear()
